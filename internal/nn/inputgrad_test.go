package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// paperSpecs are the models whose input layers skip the data gradient.
var paperSpecs = map[string]ModelSpec{
	"mlp":      {Arch: ArchMLP, Channels: 1, Height: 28, Width: 28, Classes: 10},
	"cnn-half": {Arch: ArchCNN, Channels: 1, Height: 28, Width: 28, Classes: 10, Scale: 0.5},
	"alexnet":  {Arch: ArchAlexNet, Channels: 3, Height: 32, Width: 32, Classes: 10, Scale: 0.125},
}

// stepGrads runs one forward/backward pass and returns a copy of the
// parameter gradient.
func stepGrads(m *Model, x *tensor.Tensor, labels []int) []float64 {
	logits := m.Forward(x, true)
	d := tensor.New(logits.Shape()...)
	SoftmaxCrossEntropy(logits, labels, d)
	m.ZeroGrad()
	m.Backward(d, nil)
	return append([]float64(nil), m.Grads()...)
}

// TestInputLayerSkipsDataGrad checks that the model's first layer neither
// computes nor allocates its data gradient, and that leaving it out does
// not move a single bit of the parameter gradient.
func TestInputLayerSkipsDataGrad(t *testing.T) {
	for name, spec := range paperSpecs {
		skip, err := spec.Build(3)
		if err != nil {
			t.Fatal(err)
		}
		full, err := spec.Build(3)
		if err != nil {
			t.Fatal(err)
		}
		// The reference computes the data gradient like any hidden layer.
		switch l := full.layers[0].(type) {
		case *denseLayer:
			l.noDX = false
		case *convLayer:
			l.noDX = false
		default:
			t.Fatalf("%s: input layer %s", name, l.Name())
		}
		x, labels := randBatch(rand.New(rand.NewSource(4)), skip, 6)
		got, want := stepGrads(skip, x, labels), stepGrads(full, x, labels)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: grad[%d] = %v with the skip, %v without", name, i, got[i], want[i])
			}
		}
		switch l := skip.layers[0].(type) {
		case *denseLayer:
			if l.dx != nil {
				t.Fatalf("%s: input dense layer allocated dx", name)
			}
		case *convLayer:
			if l.dx != nil {
				t.Fatalf("%s: input conv layer allocated dx", name)
			}
			if cs := l.getScratch(); cs.dcol != nil {
				t.Fatalf("%s: input conv layer allocated dcol", name)
			}
		}
	}
}
