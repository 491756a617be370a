package sim

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix whose output streams are statistically independent for
// distinct inputs. It is the standard way to expand one base seed into many
// decorrelated per-stream seeds (sequential seeds fed directly to
// rand.NewSource are strongly correlated).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed derives an independent RNG-stream seed from a base seed and a
// stream index: seed = hash(base, stream). Every (base, stream) pair maps to
// a fixed seed regardless of which worker or in which order the stream is
// consumed, which is what makes parallel trial fan-out reproducible.
func DeriveSeed(base int64, stream uint64) int64 {
	return int64(splitmix64(splitmix64(uint64(base)) ^ stream))
}
