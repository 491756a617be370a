// Package mapyield exercises the map-iteration-order analyzer: loops
// whose order reaches output must be flagged, order-insensitive loops and
// the collect-then-sort idiom must stay silent.
package mapyield

import (
	"fmt"
	"io"
	"sort"
)

// printDirect: iteration order goes straight to stdout.
func printDirect(m map[string]int) {
	for k, v := range m { // want `map iteration order reaches fmt\.Println`
		fmt.Println(k, v)
	}
}

// fprintDirect: same, via an io.Writer.
func fprintDirect(w io.Writer, m map[string]int) {
	for k := range m { // want `map iteration order reaches fmt\.Fprintf`
		fmt.Fprintf(w, "%s\n", k)
	}
}

// writerMethod: Write-family methods are sinks too.
func writerMethod(w *sortableWriter, m map[string]int) {
	for k := range m { // want `map iteration order reaches method WriteString`
		w.WriteString(k)
	}
}

// channelSend: order observable by the receiver.
func channelSend(m map[string]int, ch chan string) {
	for k := range m { // want `map iteration order reaches a channel send`
		ch <- k
	}
}

// escapeUnsorted: collected keys escape by return without a sort.
func escapeUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration appends to keys, which escapes without being sorted`
		keys = append(keys, k)
	}
	return keys
}

// collectThenSort is the canonical safe idiom.
func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectThenSortSlice uses sort.Slice rather than sort.Strings.
func collectThenSortSlice(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// collectThenHelperSort trusts a sort-named local helper. The pattern was
// summary.FPSet.Diff's; FPSet holds no map now, so this copy is the only one.
func collectThenHelperSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(ks []string) { sort.Strings(ks) }

// commutativeFold: accumulation into a sum is order-independent.
func commutativeFold(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// mapToMap: stores into another map carry no ordering.
func mapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// localScratch: appending to a loop-local slice that never leaves the
// statement cannot leak order.
func localScratch(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var tmp []int
		tmp = append(tmp, vs...)
		n += len(tmp)
	}
	return n
}

// sortableWriter gives the fixture a Write-family method without
// importing anything heavier.
type sortableWriter struct{ buf []byte }

func (w *sortableWriter) WriteString(s string) (int, error) {
	w.buf = append(w.buf, s...)
	return len(s), nil
}
