package summary

import "math"

// bloomShape is the sizing rule of the Bloom-filter fingerprint summary of
// §2.4.1 — far cheaper to communicate than the full fingerprint set, at
// some cost in accuracy: m bits (a positive multiple of 64) and k hash
// functions for expectedItems at the target false positive rate.
func bloomShape(expectedItems int, fpRate float64) (m uint64, k int) {
	if expectedItems < 1 {
		expectedItems = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	m = uint64(math.Ceil(-float64(expectedItems) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	m = (m + 63) / 64 * 64
	// k follows from the target rate alone: k = round(−log2(p)), clamped to
	// [1, 16] — the optimum at m = −n·ln p / ln²2. Deriving it from the
	// clamped-and-rounded m instead would blow up for tiny filters
	// (expectedItems ≪ 64 makes m/n huge and the hash count saturate
	// pointlessly).
	k = int(math.Round(-math.Log2(fpRate)))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return m, k
}

// BloomBytes returns the size in bytes of a Bloom-filter summary of n
// fingerprints at false positive rate p, the quantity that makes Bloom
// summaries cheaper than explicit fingerprint lists.
func BloomBytes(n int, p float64) int {
	m, _ := bloomShape(n, p)
	return int(m / 8)
}
