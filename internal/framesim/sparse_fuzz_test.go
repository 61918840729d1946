package framesim

import (
	"testing"

	"repro/internal/layers"
)

// refWalk is the exact oracle of the sparse walker's sampled mode: every
// op of the tape in order through the Batch kernels, with every error
// site consuming its trial word(s) through sampleSite whether or not a
// hit lands in it.
func (s *Sparse) refWalk(st *runState, ti *sparseTape, ref, out []uint64) {
	copy(out, ref)
	st.sc, st.mc, st.pc = 0, 0, 0
	b := st.b
	for i := range ti.t.ops {
		op := &ti.t.ops[i]
		a := int(op.a)
		switch op.code {
		case opH:
			b.H(a)
		case opS, opSdg:
			b.S(a)
		case opCNOT:
			b.CNOT(a, int(op.b))
		case opCZ:
			b.CZ(a, int(op.b))
		case opSWAP:
			b.SWAP(a, int(op.b))
		case opPrep:
			b.ClearQubit(a)
		case opMeas:
			out[op.b] = b.X(a) ^ ref[op.b]
		case opErrSingle, opErrMeas, opErrPair:
			s.sampleSite(st, ti, i)
		}
	}
}

// refSparse is the sparse engine with refWalk in place of the gate-list
// walk for its noisy ESM rounds.
type refSparse struct{ *Sparse }

func (r refSparse) esmRound(st *runState, out []uint64) {
	r.refWalk(st, r.esmT, r.refESM, out)
}

// FuzzSparseWalk checks the sparse engine's gate-list walk against exact
// oracles. In sampled mode one 64-shot word runs through the window loop
// twice, once with the walk and once with refWalk, and the two runs must
// give identical ShotResults and final frame planes. In scripted mode a
// script of per-site density 8·PER must give identical planes and
// outcome words on the dense and sparse tape executors after every span
// (checkScriptedSpans). flags bit 0 selects ObserveZ, bit 1 the Pauli
// frame, bit 2 uncorrelated two-qubit errors. The PER must lie in
// [1e-5, 2e-2]; the lower end is loose so that perfbench's spelling of
// 1e-5 is in.
func FuzzSparseWalk(f *testing.F) {
	// The sparse-lowper PERs exactly as perfbench spells them, then the
	// pseudo-threshold and above.
	pers := []float64{
		0.000009999999999999999, 0.000021544346900318854,
		0.000046415888336127784, 0.00010000000000000009,
		3e-4, 2e-3, 8e-3, 2e-2,
	}
	for i, per := range pers {
		f.Add(int64(101+i), per, uint16(399), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, per float64, windows uint16, flags uint8) {
		if !(per >= 0.99e-5 && per <= 2e-2) {
			t.Skip("PER outside [1e-5, 2e-2]")
		}
		obs := ObserveX
		if flags&1 != 0 {
			obs = ObserveZ
		}
		model := layers.Depolarizing(per)
		model.CorrelatedTwoQubit = flags&4 == 0
		s, err := NewSparse(Config{
			Observable:     obs,
			WithPauliFrame: flags&2 != 0,
			Model:          model,
			MaxWindows:     1 + int(windows%400),
			RefSeed:        7,
		})
		if err != nil {
			t.Fatal(err)
		}
		run := func(c windowCode) ([]ShotResult, *Batch) {
			st := s.newRunState([]int64{seed}, nil)
			res := make([]ShotResult, 64)
			s.runWindows(c, st, res, 64, 0, nil)
			return res, st.b
		}
		got, gotB := run(s)
		want, wantB := run(refSparse{s})
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("shot %d: walk %+v, reference %+v", j, got[j], want[j])
			}
		}
		requireEqualPlanes(t, "sampled", 0, wantB, gotB)

		checkScriptedSpans(t, obs, 8*per, seed)
	})
}
