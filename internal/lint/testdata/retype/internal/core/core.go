// Package core folds a map of weights inside a floatdet-scoped path. The
// fold is clean while weight.W is an integer and a floatdet finding once W
// becomes a float, although this file never changes.
package core

import "retype.example/weight"

func Sum(m map[int]weight.W) weight.W {
	var s weight.W
	for _, v := range m {
		s += v
	}
	return s
}
