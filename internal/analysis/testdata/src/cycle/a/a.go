// Package a imports package b, which imports a back. The importer must
// stop at the cycle and give each side the other as a placeholder.
package a

import "repro/internal/analysis/testdata/src/cycle/b"

// A points at b's type, which the cycle leaves unresolved.
type A struct{ Next *b.B }
