package ontario

import (
	"reflect"
	"testing"

	"ontario/internal/core"
	"ontario/internal/netsim"
	"ontario/internal/wrapper"
)

// resolveOptions is the test hook for the option-resolution pipeline.
func resolveOptions(options ...Option) core.Options {
	return newConfig(options).resolve()
}

// TestOptionOrderIndependence is the regression for the v0 trap where
// WithOptimizer/WithJoinOperator applied before WithAwarePlan/
// WithUnawarePlan were silently reset: every permutation of a fixed option
// set must resolve to the same planner options.
func TestOptionOrderIndependence(t *testing.T) {
	opts := []Option{
		WithAwarePlan(),
		WithHeuristic2(),
		WithNetwork(Gamma2),
		WithOptimizer(OptimizerGreedy),
		WithJoinOperator(JoinBind),
		WithNaiveTranslation(),
		WithTripleDecomposition(),
		WithBindBlockSize(8),
	}
	want := resolveOptions(opts...)

	// Heap's algorithm over all len(opts)! orderings.
	var permute func(k int, a []Option)
	checked := 0
	permute = func(k int, a []Option) {
		if t.Failed() {
			return
		}
		if k == 1 {
			checked++
			if got := resolveOptions(a...); !reflect.DeepEqual(got, want) {
				t.Errorf("permutation %d resolved to %+v, want %+v", checked, got, want)
			}
			return
		}
		for i := 0; i < k; i++ {
			permute(k-1, a)
			if k%2 == 0 {
				a[i], a[k-1] = a[k-1], a[i]
			} else {
				a[0], a[k-1] = a[k-1], a[0]
			}
		}
	}
	permute(len(opts), append([]Option(nil), opts...))
	if want := 40320; checked != want { // 8!
		t.Fatalf("checked %d permutations, want %d", checked, want)
	}
}

// TestOptionResolutionV0Trap pins the exact case the v0 docs warned about:
// WithOptimizer before WithAwarePlan must not be reset to the aware
// default.
func TestOptionResolutionV0Trap(t *testing.T) {
	before := resolveOptions(WithOptimizer(OptimizerGreedy), WithAwarePlan())
	after := resolveOptions(WithAwarePlan(), WithOptimizer(OptimizerGreedy))
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("order-dependent resolution: before=%+v after=%+v", before, after)
	}
	if before.Optimizer != core.OptimizerGreedy {
		t.Errorf("optimizer override lost: %v", before.Optimizer)
	}
	if !before.Aware {
		t.Error("aware mode lost")
	}

	joinFirst := resolveOptions(WithJoinOperator(JoinBind), WithUnawarePlan())
	if joinFirst.JoinOperator != core.JoinBind {
		t.Errorf("join operator override lost: %v", joinFirst.JoinOperator)
	}
}

// TestOptionResolutionDefaults pins the resolved defaults of each plan
// mode.
func TestOptionResolutionDefaults(t *testing.T) {
	unaware := resolveOptions()
	if unaware.Aware || unaware.Optimizer != core.OptimizerGreedy || unaware.Network != netsim.NoDelay {
		t.Errorf("default options = %+v", unaware)
	}
	aware := resolveOptions(WithAwarePlan(), WithNetwork(Gamma3))
	if !aware.Aware || aware.Optimizer != core.OptimizerCost ||
		aware.FilterPolicy != core.FilterAtSourceIfIndexed ||
		aware.Translation != wrapper.TranslationOptimized ||
		aware.Network.Name != "Gamma 3" {
		t.Errorf("aware options = %+v", aware)
	}
	h2 := resolveOptions(WithHeuristic2(), WithNetwork(Gamma3))
	if !h2.Aware || h2.FilterPolicy != core.FilterHeuristic2 {
		t.Errorf("heuristic2 options = %+v", h2)
	}
	// WithHeuristic2 implies an aware plan even when WithUnawarePlan is
	// also present, in either order.
	if a, b := resolveOptions(WithUnawarePlan(), WithHeuristic2()), resolveOptions(WithHeuristic2(), WithUnawarePlan()); !reflect.DeepEqual(a, b) || !a.Aware {
		t.Errorf("h2+unaware resolution: %+v vs %+v", a, b)
	}
}
