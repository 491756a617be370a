package tvinfo

// The TV predicates of §4.2.1: given traffic information collected at two
// monitoring points, decide whether a conservation-of-traffic policy
// (§2.4.1) held between them. Each policy addresses one threat: flow →
// dropping, content → modification/fabrication (and dropping), order →
// reordering, timeliness → delaying.
//
// Thresholds exist because real networks lose and reorder small amounts of
// traffic benignly; every protocol except χ distinguishes malice from
// congestion with exactly these static thresholds (§6.1.1 explains why that
// is unsound — χ replaces them with queue replay, implemented in
// internal/detector/chi).

import (
	"fmt"
	"time"

	"routerwatch/internal/summary"
)

// Result is a TV predicate's verdict.
type Result struct {
	OK bool
	// Lost counts packets seen upstream but not downstream.
	Lost int
	// Fabricated counts packets seen downstream but not upstream.
	Fabricated int
	// Reordered is the §2.2.1 reordering amount.
	Reordered int
	// LateCount counts packets delayed beyond the timeliness bound.
	LateCount int
	// Detail explains a failed validation.
	Detail string
}

// String renders the result.
func (r Result) String() string {
	if r.OK {
		return "ok"
	}
	return fmt.Sprintf("FAIL lost=%d fabricated=%d reordered=%d late=%d (%s)",
		r.Lost, r.Fabricated, r.Reordered, r.LateCount, r.Detail)
}

// flowTV is conservation of flow (§2.4.1): compare packet counts, tolerate
// up to th.Loss missing packets. Detects only dropping, and a fabricating
// router can "fudge" the counts — the WATCHERS weakness.
func flowTV(th Thresholds, up, down summary.Counter) Result {
	lost := up.Packets - down.Packets
	res := Result{OK: true}
	if lost > 0 {
		res.Lost = int(lost)
	}
	if lost < 0 {
		res.Fabricated = int(-lost)
	}
	if lost > int64(th.Loss) {
		res.OK = false
		res.Detail = fmt.Sprintf("%d packets missing exceeds threshold %d", lost, th.Loss)
	}
	return res
}

// contentTV is conservation of content (§2.4.1): compare fingerprint
// multisets. Detects loss, modification (a lost fingerprint plus a
// fabricated one), fabrication and misrouting.
func contentTV(th Thresholds, up, down *summary.FPSet) Result {
	lost, fabricated := up.DiffCounts(down)
	res := Result{OK: true, Lost: lost, Fabricated: fabricated}
	if res.Lost > th.Loss {
		res.OK = false
		res.Detail = fmt.Sprintf("%d fingerprints missing exceeds threshold %d", res.Lost, th.Loss)
	}
	if res.Fabricated > th.Fabrication {
		res.OK = false
		res.Detail += fmt.Sprintf(" %d unexpected fingerprints exceeds threshold %d", res.Fabricated, th.Fabrication)
	}
	return res
}

// orderTV is conservation of order (§2.4.1): content validation plus the
// reordering metric over ordered fingerprint lists. Only Π2 and Πk+2
// address this attack among the surveyed protocols.
func orderTV(th Thresholds, up, down *summary.OrderedFP) Result {
	upSet, downSet := summary.NewFPSet(), summary.NewFPSet()
	for _, fp := range up.Seq() {
		upSet.Add(fp)
	}
	for _, fp := range down.Seq() {
		downSet.Add(fp)
	}
	lost, fabricated := upSet.DiffCounts(downSet)
	res := Result{OK: true, Lost: lost, Fabricated: fabricated}
	res.Reordered = summary.ReorderAmount(up, down)
	if res.Lost > th.Loss {
		res.OK = false
		res.Detail = fmt.Sprintf("%d lost > %d", res.Lost, th.Loss)
	}
	if res.Fabricated > th.Fabrication {
		res.OK = false
		res.Detail += fmt.Sprintf(" %d fabricated > %d", res.Fabricated, th.Fabrication)
	}
	if res.Reordered > th.Reorder {
		res.OK = false
		res.Detail += fmt.Sprintf(" reorder amount %d > %d", res.Reordered, th.Reorder)
	}
	return res
}

// timelinessTV is conservation of timeliness (§2.4.1): match timestamped
// fingerprints by value and bound per-packet transit delay by th.MaxDelay.
func timelinessTV(th Thresholds, up, down *summary.TimedFP) Result {
	res := Result{OK: true}
	downTimes := make(map[uint64][]time.Duration)
	for i, fp := range down.FPs {
		downTimes[uint64(fp)] = append(downTimes[uint64(fp)], down.TSs[i])
	}
	for i, fp := range up.FPs {
		ts := downTimes[uint64(fp)]
		if len(ts) == 0 {
			res.Lost++
			continue
		}
		delay := ts[0] - up.TSs[i]
		downTimes[uint64(fp)] = ts[1:]
		if delay > th.MaxDelay {
			res.LateCount++
		}
	}
	for _, rest := range downTimes {
		res.Fabricated += len(rest)
	}
	if res.Lost > th.Loss {
		res.OK = false
		res.Detail = fmt.Sprintf("%d lost > %d", res.Lost, th.Loss)
	}
	if res.LateCount > th.Late {
		res.OK = false
		res.Detail += fmt.Sprintf(" %d packets later than %v", res.LateCount, th.MaxDelay)
	}
	if res.Fabricated > th.Fabrication {
		res.OK = false
		res.Detail += fmt.Sprintf(" %d fabricated", res.Fabricated)
	}
	return res
}
