package scenario

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// trueRatio is the fraction of true entries in a trace.
func trueRatio(xs []bool) float64 {
	trues := 0
	for _, x := range xs {
		if x {
			trues++
		}
	}
	return float64(trues) / float64(len(xs))
}

func TestAccuracyTraceRate(t *testing.T) {
	for _, acc := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if ratio := trueRatio(AccuracyTrace(10_000, acc, 1)); math.Abs(ratio-acc) > 0.03 {
			t.Errorf("accuracy %.2f: observed %.3f", acc, ratio)
		}
	}
}

func TestPrintJobsShape(t *testing.T) {
	jobs := PrintJobs(5_000, PageSize, 0.3, 9)
	overflows := make([]bool, len(jobs))
	for i, j := range jobs {
		overflows[i] = j.Overflow
		if j.Overflow && j.Lines < PageSize {
			t.Fatalf("overflow job with %d lines < page %d", j.Lines, PageSize)
		}
		if !j.Overflow && j.Lines >= PageSize {
			t.Fatalf("non-overflow job with %d lines ≥ page %d", j.Lines, PageSize)
		}
		if j.Lines < 1 {
			t.Fatalf("job with %d lines", j.Lines)
		}
	}
	if ratio := trueRatio(overflows); math.Abs(ratio-0.3) > 0.03 {
		t.Errorf("overflow rate = %.3f, want ≈0.30", ratio)
	}
}

// Property: the generators are seed-deterministic, seed-sensitive and
// length-correct.
func TestQuickGeneratorContracts(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		size := int(n%64) + 1
		if a, b := AccuracyTrace(size, 0.5, seed), AccuracyTrace(size, 0.5, seed); !reflect.DeepEqual(a, b) || len(a) != size {
			return false
		}
		if a, b := PrintJobs(size, PageSize, 0.4, seed), PrintJobs(size, PageSize, 0.4, seed); !reflect.DeepEqual(a, b) || len(a) != size {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(AccuracyTrace(100, 0.5, 7), AccuracyTrace(100, 0.5, 8)) {
		t.Fatal("different seeds should differ")
	}
}
