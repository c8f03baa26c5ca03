// Package testmode exercises the -tests flag: the violation lives in a
// same-package _test.go file and is only reported when test files are
// included in the analysis.
package testmode
