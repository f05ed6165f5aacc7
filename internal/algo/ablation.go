package algo

import (
	"repro/internal/trajectory"
)

// Ablation variants of the paper's algorithms. Each removes one design
// element so experiments can measure what that element buys; tables A2 and A3
// of internal/experiments report the difference.

// SearchRoundNoWait is Search(k) without the final wait — the wait exists
// "only in order to simplify algebra" (Section 2), rounding the duration to
// exactly 3(π+1)(k+1)·2^(k+1). Without it the schedule drifts below the
// closed form and the phase-structure lemmas of Section 4 stop holding
// exactly.
func SearchRoundNoWait(k int) trajectory.Source {
	return program(gen{sched: schedOnce, n: k})
}

// UniversalNoRev is Algorithm 7 with the SearchAllRev pass replaced by an
// equal-length wait at the origin: the round schedule (I(n), A(n)) is
// unchanged, but the active phase performs only one forward sweep. Lemma 10
// relies on the reverse pass (the overlap of Figure 3b begins near the *end*
// of the active phase, which the reverse pass spends on the small rounds
// that revisit the origin's neighbourhood); this variant shows which τ
// regimes that matters for.
func UniversalNoRev() trajectory.Source {
	return program(gen{sched: schedNoRev, n: 1, wait: true})
}

// UniversalNoInactive is Algorithm 7 without the inactive (waiting) phases:
// the robot searches continuously. With symmetric speeds and asymmetric
// clocks both robots are then always in motion and the "find the peer while
// it waits" mechanism is lost entirely; rendezvous may still occur
// accidentally, but no round bound holds. Included to demonstrate that the
// waiting phases are load-bearing.
func UniversalNoInactive() trajectory.Source {
	return program(gen{sched: schedNoInactive, n: 1, wait: true})
}
