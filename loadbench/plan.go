package main

import "math"

// plan is the request schedule of one run. Every phase whose size is fixed
// by --seconds alone (the warm-up, each slot's fixed-rate chunk, the
// appends, the write-only tail) is drawn from the seed before the server
// starts, slot by slot and each phase from its own generator. Only the SLO
// ladder's trials, whose size follows the rung the staircase reached, draw
// as the run goes, last and from a generator of their own. So whatever rungs
// a commit's and its parent's ladders visit, both send the same fixed-rate
// queries and the same appends.
type plan struct {
	slots                int
	fixedSecs, trialSecs float64 // per slot

	pool     []string    // warm pool, asked once before measuring
	warm     []Request   // warm-up pass at the fixed rate
	fixed    [][]Request // per slot, the fixed-rate chunk's queries
	fixedApp [][]Request // per slot, the appends beside the chunk (nil on a read-only workload)
	trialApp [][]Request // per slot, the appends beside the rung trial (nil on a read-only workload)
	tail     []Request   // write-only append tail (read-only workloads)
	ladder   *Stream     // the rung trials' queries
}

func newPlan(w Workload, seed int64, seconds float64, ents []string) *plan {
	fixedWin, ladderWin := fixedShare*seconds, ladderShare*seconds
	if !w.ReadOnly() {
		fixedWin, ladderWin = (fixedShare+tailShare/2)*seconds, (ladderShare+tailShare/2)*seconds
	}
	slots := max(2, int(math.Round((fixedWin+ladderWin)/slotSecs)))
	p := &plan{
		slots:     slots,
		fixedSecs: fixedWin / float64(slots),
		trialSecs: ladderWin / float64(slots),
		fixedApp:  make([][]Request, slots),
		trialApp:  make([][]Request, slots),
	}
	st := newStream(w, seed, ents)
	p.pool = st.Pool()
	p.warm = st.phase("warm-up").Take("query", int(w.QueryQPS*warmupSecs))
	fixed, appends := st.phase("fixed"), st.phase("append")
	for i := 0; i < slots; i++ {
		p.fixed = append(p.fixed, fixed.Take("query", max(1, int(w.QueryQPS*p.fixedSecs))))
		if !w.ReadOnly() {
			p.fixedApp[i] = appends.Take("append", max(1, int(appendQPS*p.fixedSecs)))
			p.trialApp[i] = appends.Take("append", max(1, int(appendQPS*p.trialSecs)))
		}
	}
	if w.ReadOnly() {
		p.tail = appends.Take("append", int(appendQPS*tailShare*seconds))
	}
	p.ladder = st.phase("ladder")
	return p
}

// trial returns the queries of one rung trial at rate q/s.
func (p *plan) trial(rate float64) []Request {
	return p.ladder.Take("query", max(1, int(rate*p.trialSecs)))
}
