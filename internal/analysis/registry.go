// Package analysis gathers the smoothvet analyzer suite. The individual
// passes live in subpackages (one per contract); this package is the single
// registration point cmd/smoothvet and the tests consume.
package analysis

import (
	"repro/internal/analysis/aliasretain"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errloss"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/pubimmut"
	"repro/internal/analysis/shardconfine"
)

// All returns every smoothvet analyzer, in stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		aliasretain.Analyzer,
		determinism.Analyzer,
		errloss.Analyzer,
		hotpath.Analyzer,
		pubimmut.Analyzer,
		shardconfine.Analyzer,
	}
}
