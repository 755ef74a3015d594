// Package b closes the import cycle a → b → a.
package b

import "repro/internal/analysis/testdata/src/cycle/a"

// B points at a's type, which the cycle leaves unresolved.
type B struct{ Next *a.A }
