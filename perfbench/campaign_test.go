package main

import (
	"bytes"
	"testing"

	"sciera/internal/experiments"
)

// TestAssembledCampaignMatchesRunCampaign checks that the traced run's
// campaign, assembled from public calls, is byte-identical to
// experiments.RunCampaign's, dataset and figures, at 1 and 2 workers.
func TestAssembledCampaignMatchesRunCampaign(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := campaignConfig(42)
		cfg.Quick = true
		cfg.Workers = workers

		want, n, err := experiments.RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Close()
		run, err := assembleCampaign(cfg, newTracer("test"), 0)
		if err != nil {
			t.Fatal(err)
		}
		run.close()
		if len(run.nets) != workers {
			t.Fatalf("w=%d: %d replicas", workers, len(run.nets))
		}

		var a, b bytes.Buffer
		if err := want.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := run.ds.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("w=%d: assembled dataset differs from RunCampaign's", workers)
		}
		a.Reset()
		b.Reset()
		renderFigures(&a, cfg, want)
		renderFigures(&b, cfg, run.ds)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("w=%d: assembled figures differ from RunCampaign's", workers)
		}
		var calls int64
		for _, acc := range run.iprtt {
			calls += acc.calls
		}
		if calls != int64(len(want.Records)) {
			t.Errorf("w=%d: %d IP baseline calls for %d records", workers, calls, len(want.Records))
		}
	}
}
