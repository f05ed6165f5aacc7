package algo

import (
	"math"

	"repro/internal/geom"
	"repro/internal/segment"
	"repro/internal/trajectory"
)

// schedule is the outer loop of a program: which pieces — Search(k) rounds
// and waits at the origin — it runs, in which order.
type schedule uint8

const (
	schedOnce       schedule = iota // one piece: Search(n), or the circle or annulus set up at construction
	schedCumulative                 // Algorithm 4: Search(1), Search(2), ...
	schedAll                        // Algorithm 5: Search(1..n)
	schedAllRev                     // Algorithm 6: Search(n..1)
	schedUniversal                  // Algorithm 7, round n: wait 2S(n), Search(1..n), Search(n..1)
	schedNoRev                      // UniversalNoRev, round n: wait 2S(n), Search(1..n), wait S(n)
	schedNoInactive                 // UniversalNoInactive, round n: Search(1..n), Search(n..1)
)

// step is the position inside the current piece.
type step uint8

const (
	stepPiece  step = iota // the piece is done: start the next one
	stepOut                // circle i of annulus j: the line out to (c, 0)
	stepAround             // the circle of radius c
	stepBack               // the line back to the origin
	stepWait               // the round's final wait
)

// pieceKind is what schedule's next piece is.
type pieceKind uint8

const (
	pieceEnd pieceKind = iota
	pieceRound
	pieceWait
)

// gen is the generator state of every program in this package: the
// schedule's position (round n, piece pos) and the position inside the
// current Search(k) — annulus j of 0..jEnd, circle i of 0..m at radius
// c = δ + 2iρ, and the step within the circle. It is a plain value: a copy
// taken mid-stream continues the same sequence independently.
//
// Each segment is what the paper's loop nest builds — UnitLine(0, (c, 0)),
// FullCircle(0, c, 0), UnitLine((c, 0), 0) and NewWait(0, w) — written in
// place by the in-place forms of those constructors (Seg.SetLine, SetArc,
// SetWait), and its duration and length are closed forms equal bit for bit
// to Seg.DurationAndLength: a line between the origin and (c, 0) has
// length hypot(c, 0) = |c| and unit speed, a full circle of radius c has
// length and duration c·(2π), and a wait's duration is its constructor
// argument (the identities algo/replay.go folds with). FuzzGenMatchesFrozen
// pins both against a frozen copy of the push generators.
type gen struct {
	sched schedule
	n     int  // the round (Universal family), the bound (SearchAll, SearchAllRev) or k (SearchRound)
	pos   int  // pieces of the schedule (of round n) started so far
	wait  bool // Search(k) ends with FinalWait(k)

	k, j, jEnd, i, m int
	delta, rho, c    float64
	step             step

	seg segment.Seg // the segment handed out last
}

// program returns the Source whose generators start as copies of proto.
func program(proto gen) trajectory.Source {
	return trajectory.New(func() trajectory.Gen {
		g := proto
		return &g
	})
}

// annulusProgram is the program of one annulus: circles i = 0..m at radii
// δ + 2iρ. SearchCircle is the annulus of one circle (ρ = 0, m = 0).
func annulusProgram(delta, rho float64, m int) trajectory.Source {
	return program(gen{sched: schedOnce, pos: 1, delta: delta, rho: rho, m: m, step: stepOut})
}

// Next implements trajectory.Gen.
func (g *gen) Next() (seg *segment.Seg, dur, length float64, ok bool) {
	seg = &g.seg
	for {
		switch g.step {
		case stepOut:
			if g.i > g.m {
				if g.j++; g.j > g.jEnd {
					g.step = stepWait
					continue
				}
				g.annulus()
				continue
			}
			g.c = g.delta + 2*float64(g.i)*g.rho
			seg.SetLine(geom.Zero, geom.V(g.c, 0), 1)
			g.step = stepAround
			l := math.Abs(g.c)
			return seg, l, l, true
		case stepAround:
			seg.SetArc(geom.Zero, g.c, 0, 2*math.Pi, 1)
			g.step = stepBack
			l := g.c * (2 * math.Pi)
			return seg, l, l, true
		case stepBack:
			seg.SetLine(geom.V(g.c, 0), geom.Zero, 1)
			g.i++
			g.step = stepOut
			l := math.Abs(g.c)
			return seg, l, l, true
		case stepWait:
			g.step = stepPiece
			if g.wait {
				w := FinalWait(g.k)
				seg.SetWait(geom.Zero, w)
				return seg, w, 0, true
			}
		default:
			switch k, w, kind := g.piece(); kind {
			case pieceEnd:
				return nil, 0, 0, false
			case pieceWait:
				seg.SetWait(geom.Zero, w)
				return seg, w, 0, true
			default:
				g.round(k)
			}
		}
	}
}

// round starts Search(k) at its first annulus (at its final wait when it
// has no annuli).
func (g *gen) round(k int) {
	g.k, g.j, g.jEnd = k, 0, 2*k-1
	if g.jEnd < 0 {
		g.step = stepWait
		return
	}
	g.annulus()
	g.step = stepOut
}

// annulus starts annulus j of Search(k) at its first circle.
func (g *gen) annulus() {
	g.delta, g.rho = RoundAnnulus(g.j, g.k)
	g.m = AnnulusCircleCount(g.delta, 2*g.delta, g.rho)
	g.i = 0
}

// piece advances the schedule to its next piece: Search(k) (pieceRound), a
// wait of duration w (pieceWait), or the end.
func (g *gen) piece() (k int, w float64, kind pieceKind) {
	g.pos++
	p := g.pos
	switch g.sched {
	case schedOnce:
		if p == 1 {
			return g.n, 0, pieceRound
		}
		return 0, 0, pieceEnd
	case schedCumulative:
		return p, 0, pieceRound
	case schedAll, schedAllRev:
		switch {
		case p > g.n:
			return 0, 0, pieceEnd
		case g.sched == schedAll:
			return p, 0, pieceRound
		default:
			return g.n + 1 - p, 0, pieceRound
		}
	}
	// The Universal family: round n, then round n+1.
	if g.sched != schedNoInactive {
		if p == 1 {
			return 0, 2 * SearchAllDuration(g.n), pieceWait
		}
		p--
	}
	switch {
	case p <= g.n:
		return p, 0, pieceRound
	case g.sched == schedNoRev:
		if p == g.n+1 {
			return 0, SearchAllDuration(g.n), pieceWait
		}
	case p <= 2*g.n:
		return 2*g.n + 1 - p, 0, pieceRound
	}
	g.n++
	g.pos = 0
	return g.piece()
}
