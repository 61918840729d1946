package experiments

import (
	"repro/internal/framesim"
	"repro/internal/layers"
)

// wideEngine is what the harness needs of a compiled frame engine: the
// dense and sparse SC17 engines and the two Steane engines all run wide
// batches under the same lane-extraction contract.
type wideEngine interface {
	RunBatchWide(seeds []int64, shots int) ([]framesim.ShotResult, error)
}

// frameConfig maps an LER configuration to the frame engines' config;
// cfg must already have its defaults applied. The Steane engines ignore
// the SC17-only fields (InitRounds, DecoderRule).
func frameConfig(cfg LERConfig) framesim.Config {
	model := layers.Depolarizing(cfg.PER)
	if cfg.Model != nil {
		model = *cfg.Model
	}
	obs := framesim.ObserveX
	if cfg.ErrorType == LogicalZ {
		obs = framesim.ObserveZ
	}
	return framesim.Config{
		Observable:       obs,
		WithPauliFrame:   cfg.WithPauliFrame,
		MaxLogicalErrors: cfg.MaxLogicalErrors,
		MaxWindows:       cfg.MaxWindows,
		InitRounds:       cfg.InitRounds,
		DecoderRule:      cfg.DecoderRule,
		Model:            model,
		RefSeed:          cfg.Seed,
	}
}

// newFrameEngine compiles the frame engine for cfg's code and engine;
// cfg.Seed seeds the noiseless reference run and cfg must already have
// its defaults applied.
func newFrameEngine(cfg LERConfig) (wideEngine, error) {
	fc := frameConfig(cfg)
	switch {
	case cfg.Code == CodeSteane && cfg.Engine == EngineSparse:
		return framesim.NewSteaneSparse(fc)
	case cfg.Code == CodeSteane:
		return framesim.NewSteane(fc)
	case cfg.Engine == EngineSparse:
		return framesim.NewSparse(fc)
	}
	return framesim.New(fc)
}

// frameToLER converts a framesim shot into the harness result type.
func frameToLER(r framesim.ShotResult) LERResult {
	out := LERResult{
		Windows:         r.Windows,
		LogicalErrors:   r.LogicalErrors,
		CorrectionGates: r.CorrectionGates,
		CorrectionSlots: r.CorrectionSlots,
		OpsIssued:       r.OpsIssued,
		SlotsIssued:     r.SlotsIssued,
		OpsExecuted:     r.OpsExecuted,
		SlotsExecuted:   r.SlotsExecuted,
		InjectedErrors:  r.InjectedErrors,
	}
	if out.Windows > 0 {
		out.LER = float64(out.LogicalErrors) / float64(out.Windows)
	}
	return out
}

func frameShotsToLER(rs []framesim.ShotResult) []LERResult {
	out := make([]LERResult, len(rs))
	for i, shot := range rs {
		out[i] = frameToLER(shot)
	}
	return out
}
