package framesim

import (
	"math"
	"math/rand"
)

// sampler draws hit positions for one Bernoulli error channel across the
// flattened trial space (site × 64 shots) with geometric gap sampling:
// instead of one uniform draw per (site, shot) trial, the sampler draws
// the gap to the next hit — Geometric(p) — and skips everything in
// between. At the physical error rates of the LER sweeps (p ~ 1e-3) this
// replaces thousands of RNG calls per ESM round with a handful.
//
// The gap is drawn by quantizing an exponential: if E ~ Exp(1), then
// ⌊E/λ⌋ with λ = −log(1−p) is exactly Geometric(p) on {0, 1, ...} — the
// same inversion formula as ⌊log(1−u)/log(1−p)⌋ with E = −log(1−u), but
// rand.ExpFloat64's ziggurat draw costs a fraction of a log evaluation,
// and the gap draw is the single hottest RNG operation of a sweep.
//
// next is the offset of the next hit inside the current 64-trial word;
// the executor consumes one word per error site and carries the residual
// offset to the following site via advanceWord.
type sampler struct {
	p    float64
	invL float64 // 1/λ = −1/log(1 − p), the geometric gap scale
	next int64
}

// disabledNext parks a zero-probability sampler beyond every word without
// risking overflow when advanceWord would decrement it.
const disabledNext = int64(math.MaxInt64 / 2)

// newSampler primes a sampler, consuming one gap draw when p > 0.
func newSampler(p float64, rng *rand.Rand) sampler {
	s := sampler{p: p}
	if p <= 0 {
		s.next = disabledNext
		return s
	}
	if p < 1 {
		s.invL = -1 / math.Log1p(-p)
	}
	s.next = s.gap(rng) - 1
	return s
}

// gap draws the 1-based distance to the next hit: Geometric(p) via the
// quantized exponential, ⌊Exp(1)·invL⌋ + 1.
func (s *sampler) gap(rng *rand.Rand) int64 {
	g := rng.ExpFloat64() * s.invL
	if g >= float64(disabledNext) {
		return disabledNext
	}
	return int64(g) + 1
}

// advanceWord moves the trial window past the 64 trials of one site.
func (s *sampler) advanceWord() {
	if s.p > 0 {
		s.next -= 64
	}
}

// siteOfNextHit returns how many whole 64-trial sites lie before the
// next hit: the hit lands inside site ordinal siteOfNextHit() counted
// from the current stream position. Between sites the stream position is
// always on a word boundary, so this is an exact floor division.
//
//qa:hotpath
func (s *sampler) siteOfNextHit() int64 {
	if s.p <= 0 {
		return disabledNext
	}
	return s.next >> 6
}

// windowsBeforeHit returns how many whole windows of `sites` error sites
// each lie before the next hit.
//
//qa:hotpath
func (s *sampler) windowsBeforeHit(sites int) int64 {
	if sites == 0 {
		return disabledNext
	}
	return s.siteOfNextHit() / int64(sites)
}

// skipSites advances the trial stream past k whole sites (64·k trials)
// without visiting them. Legal only when no hit lands inside the skipped
// span (the caller checks siteOfNextHit); the sampler state afterwards is
// bit-identical to executing k empty word loops.
//
//qa:hotpath
func (s *sampler) skipSites(k int) {
	if s.p > 0 {
		s.next -= 64 * int64(k)
	}
}

// pairTable lists the 15 equally likely correlated two-qubit error pairs
// in the order of layers.twoQubitErrorTable: ({I,X,Y,Z}² minus II),
// first operand outermost.
var pairTable = func() [15][2]PauliErr {
	set := [4]PauliErr{ErrNone, ErrX, ErrY, ErrZ}
	var out [15][2]PauliErr
	i := 0
	for _, a := range set {
		for _, b := range set {
			if a == ErrNone && b == ErrNone {
				continue
			}
			out[i] = [2]PauliErr{a, b}
			i++
		}
	}
	return out
}()
