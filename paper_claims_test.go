package ontario_test

import (
	"context"
	"testing"

	"ontario"
	"ontario/internal/lslod"
)

// TestPaperClaims asserts the paper's qualitative findings on the exact
// message counts and simulated delays of the small LSLOD lake, through the
// public API only. Sleeping is off (net scale 0); messages and sampled
// delays are still counted.
func TestPaperClaims(t *testing.T) {
	lk, err := lslod.BuildLake(lslod.SmallScale(), 2)
	if err != nil {
		t.Fatal(err)
	}
	eng := ontario.New(lk.Lake)
	run := func(t *testing.T, queryID string, opts ...ontario.Option) ontario.Stats {
		t.Helper()
		opts = append(opts, ontario.WithNetworkScale(0))
		res, err := eng.Query(context.Background(), lslod.QueryText(queryID), opts...)
		if err != nil {
			t.Fatalf("%s: %v", queryID, err)
		}
		if _, err := res.Collect(); err != nil {
			t.Fatalf("%s: %v", queryID, err)
		}
		return res.Stats()
	}
	aware, unaware := ontario.WithAwarePlan(), ontario.WithUnawarePlan()

	// The aware plan returns the same answers and never transfers more
	// intermediate results than the unaware plan.
	t.Run("AwareNeverTransfersMore", func(t *testing.T) {
		for _, q := range lslod.Queries() {
			un, aw := run(t, q.ID, unaware), run(t, q.ID, aware)
			if aw.Answers != un.Answers {
				t.Errorf("%s: answers differ (aware %d, unaware %d)", q.ID, aw.Answers, un.Answers)
			}
			if aw.Messages > un.Messages {
				t.Errorf("%s: aware transfers more (%d > %d)", q.ID, aw.Messages, un.Messages)
			}
		}
	})

	// Figure 2: on Q3 the aware plan pushes the indexed chromosome filter
	// down under every network.
	t.Run("Q3AwareFewerMessages", func(t *testing.T) {
		for _, net := range ontario.Profiles() {
			un, aw := run(t, "Q3", unaware, ontario.WithNetwork(net)), run(t, "Q3", aware, ontario.WithNetwork(net))
			if aw.Messages >= un.Messages {
				t.Errorf("%s: aware sends %d messages, unaware %d", net.Name, aw.Messages, un.Messages)
			}
		}
	})

	// The unaware plan's simulated delay on Q3 grows as the network slows.
	t.Run("Q3UnawareDelayGrowsWithProfile", func(t *testing.T) {
		var prev ontario.Stats
		for i, net := range ontario.Profiles() {
			un := run(t, "Q3", unaware, ontario.WithNetwork(net))
			if i > 0 && un.SimulatedDelay < prev.SimulatedDelay {
				t.Errorf("%s: unaware simulated delay %v below the previous profile's %v", net.Name, un.SimulatedDelay, prev.SimulatedDelay)
			}
			prev = un
		}
	})

	// Heuristic 1 on Q2: the optimized translation of the merged stars
	// transfers only the final answers, fewer than the naive translation's
	// per-star rows, and beats the unaware plan's delay.
	t.Run("H1TranslationQuality", func(t *testing.T) {
		gamma2 := ontario.WithNetwork(ontario.Gamma2)
		un := run(t, "Q2", unaware, gamma2)
		naive := run(t, "Q2", aware, ontario.WithNaiveTranslation(), gamma2)
		optimized := run(t, "Q2", aware, gamma2)
		if optimized.Messages >= naive.Messages {
			t.Errorf("optimized translation sends %d messages, naive %d", optimized.Messages, naive.Messages)
		}
		if optimized.SimulatedDelay >= un.SimulatedDelay {
			t.Errorf("optimized delay %v >= unaware %v", optimized.SimulatedDelay, un.SimulatedDelay)
		}
	})

	// The cost-based optimizer never sends more messages than the greedy
	// baseline, and strictly fewer on at least two queries.
	t.Run("CostOptimizerVsGreedy", func(t *testing.T) {
		fewer := 0
		for _, q := range lslod.Queries() {
			greedy := run(t, q.ID, aware, ontario.WithOptimizer(ontario.OptimizerGreedy))
			cost := run(t, q.ID, aware, ontario.WithOptimizer(ontario.OptimizerCost))
			if cost.Answers != greedy.Answers {
				t.Errorf("%s: cost answered %d, greedy %d", q.ID, cost.Answers, greedy.Answers)
			}
			if cost.Messages > greedy.Messages {
				t.Errorf("%s: cost sent more messages (%d > %d)", q.ID, cost.Messages, greedy.Messages)
			}
			if cost.Messages < greedy.Messages {
				fewer++
			}
		}
		if fewer < 2 {
			t.Errorf("cost optimizer strictly reduced messages on %d queries, want >= 2", fewer)
		}
	})
}
