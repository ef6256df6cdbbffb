package rif

import (
	"io"

	"repro/internal/core"
)

// This file exposes the experiment table that regenerates the paper's
// figures, ablations and studies: the same table cmd/rifsim and
// cmd/rifserve run, so a report produced through the public API is
// byte-identical to theirs for the same name and RunParams.

// Experiments lists every name RunExperiment accepts, in presentation
// order (the names cmd/rifsim takes as -fig).
func Experiments() []string { return core.ValidExperiments() }

// RunExperiment runs one named experiment and writes its text report
// to out. An unknown name returns an error that lists the valid ones.
func RunExperiment(out io.Writer, name string, p RunParams) error {
	return core.RunExperiment(out, name, p)
}
