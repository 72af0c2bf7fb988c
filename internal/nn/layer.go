// Package nn implements the neural-network substrate: layers with manual
// backpropagation, models assembled by a builder, and the three
// architectures the paper evaluates (MLP, LeNet5-style CNN, AlexNet-style
// conv net).
//
// Design: every parameter of a model lives in ONE flat []float64, and every
// gradient in a parallel flat []float64. Layers receive subslice views at
// build time. The federated-learning layer then treats models as plain
// vectors — aggregation (Eq. 2 of the paper), the FedProx/FedTrip/FedDyn
// gradient transforms, and the optimizers are all BLAS-1 kernels over these
// vectors, exactly matching the paper's O(|w|) attaching-cost analysis.
package nn

import (
	"repro/internal/prng"

	"repro/internal/tensor"
)

// Layer is one differentiable stage of a model. Layers are created through
// the Builder, which resolves shapes and binds parameter storage; they are
// stateful (they cache forward activations for the backward pass) and
// therefore belong to exactly one Model.
type Layer interface {
	// Name identifies the layer kind for diagnostics ("dense", "conv2d"...).
	Name() string
	// Resolve fixes the per-sample input shape, returning the per-sample
	// output shape or an error if the input is incompatible.
	Resolve(in []int) (out []int, err error)
	// ParamCount reports the number of scalar parameters (valid after
	// Resolve).
	ParamCount() int
	// Bind hands the layer its parameter and gradient storage (subslices
	// of the model's flat vectors) and initialises the parameters.
	Bind(params, grads []float64, rng *prng.Rand)
	// Forward computes the layer output for a batch x of shape
	// [N, inShape...]. train enables training-only behaviour (dropout).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward receives dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients into the bound gradient slice. A model's input
	// layer is built without the data gradient (see inputLayer): its
	// Backward accumulates parameter gradients only and returns nil.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// FwdFLOPs is the analytic per-sample forward cost (FLOPs), valid
	// after Resolve. Backward cost is modelled as 2x forward, the standard
	// approximation the paper also uses.
	FwdFLOPs() float64
}

// inputLayer is implemented by layers whose data gradient can be left
// out. Build calls skipDataGrad on a model's first layer, since nothing
// reads the gradient with respect to the model's input; the layer then
// neither computes nor allocates it.
type inputLayer interface {
	skipDataGrad()
}

// prependBatch builds a full batch shape [n, per-sample dims...].
func prependBatch(n int, per []int) []int {
	s := make([]int, 0, len(per)+1)
	s = append(s, n)
	return append(s, per...)
}

// numel multiplies the dims of a per-sample shape.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
