//go:build !amd64

package ldpc

// availableKernels lists the kernel sets this CPU runs: only the
// portable one exists off amd64.
func availableKernels() []*kernelSet { return []*kernelSet{&goKernels} }
