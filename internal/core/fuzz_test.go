package core

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeRequest feeds outside bytes — a stackd POST body — to
// every catalog experiment's decoder. Decoding must never panic; an
// accepted body must re-encode to a canonical fixed point (decoding the
// canonical bytes and encoding again yields the same bytes, so one
// request has one cache key); an accepted spec and its params must
// lie within the wire bounds; and accepted DTM params must, once
// defaulted, be ones the run accepts. Seeds live in testdata/fuzz/FuzzDecodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	exps := Experiments()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, e := range exps {
			req, err := e.DecodeRequest(body)
			if err != nil {
				continue
			}
			if err := req.checkWire(); err != nil {
				t.Fatalf("%s: accepted an out-of-bounds request: %v", e.Name, err)
			}
			if p, ok := req.Params.(*ManagedThermalParams); ok {
				cfg, opt := p.resolve()
				if err := cfg.Validate(); err != nil || opt.Dt <= 0 || opt.Steps <= 0 {
					t.Fatalf("%s: accepted params the run refuses: %+v, %v", e.Name, p, err)
				}
			}
			canonical, err := e.EncodeRequest(req)
			if err != nil {
				t.Fatalf("%s: accepted body does not encode: %v", e.Name, err)
			}
			again, err := e.DecodeRequest(canonical)
			if err != nil {
				t.Fatalf("%s: canonical bytes %s rejected: %v", e.Name, canonical, err)
			}
			re, err := e.EncodeRequest(again)
			if err != nil {
				t.Fatalf("%s: re-encoding %s: %v", e.Name, canonical, err)
			}
			if !bytes.Equal(re, canonical) {
				t.Fatalf("%s: encoding not a fixed point:\n%s\n%s", e.Name, canonical, re)
			}
		}
	})
}

// FuzzCampaignPayload feeds outside bytes — a campaign request body —
// down the campaign's path: decode as a campaign request, then expand
// to jobs. Decoding must never panic, and an accepted body must expand
// to the same job names as its canonical re-encoding (the bytes that
// are stackd's cache-key input), so one cache key names one job list.
// Seeds live in testdata/fuzz/FuzzCampaignPayload.
func FuzzCampaignPayload(f *testing.F) {
	e := mustExperiment("campaign")
	names := func(req ExperimentRequest) ([]string, error) {
		jobs, err := CampaignJobs(req.Spec, *req.Params.(*CampaignParams))
		if err != nil {
			return nil, err
		}
		out := make([]string, len(jobs))
		for i, j := range jobs {
			out[i] = j.Name
		}
		return out, nil
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := e.DecodeRequest(raw)
		if err != nil {
			return
		}
		want, wantErr := names(req)
		canonical, err := e.EncodeRequest(req)
		if err != nil {
			t.Fatalf("accepted payload does not encode: %v", err)
		}
		back, err := e.DecodeRequest(canonical)
		if err != nil {
			t.Fatalf("canonical payload %s rejected: %v", canonical, err)
		}
		got, gotErr := names(back)
		if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("canonical payload %s expands differently:\n%v (%v)\n%v (%v)",
				canonical, want, wantErr, got, gotErr)
		}
	})
}
