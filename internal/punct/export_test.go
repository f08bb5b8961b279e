package punct

import "math/rand"

// RandPattern draws a pattern over every Op and value kind the wire codec
// carries, as the round-trip property test does; external tests seed
// from it.
func RandPattern(rng *rand.Rand) Pattern {
	preds := make([]Pred, 1+rng.Intn(6))
	for i := range preds {
		preds[i] = randPred(rng)
	}
	return NewPattern(preds...)
}
