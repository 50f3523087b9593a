// Package weight declares the weight type the dependent package folds. The
// retype test rewrites W's underlying type between two analyses.
package weight

type W int
