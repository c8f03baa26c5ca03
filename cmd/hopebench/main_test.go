package main

import (
	"strings"
	"testing"

	"hope/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	all := experiments.All()
	for _, tc := range []struct {
		spec    string
		want    string // selected IDs, comma-joined
		wantErr string // substring of the error; "" = no error
	}{
		{spec: "all", want: "E1,E2,E3,E6,E7,E8,E9,E10"},
		{spec: "E1", want: "E1"},
		{spec: "E3,E1", want: "E1,E3"}, // registration order, not flag order
		{spec: " e2 , E10 ", want: "E2,E10"},
		{spec: "E1,E1", want: "E1"},
		{spec: "E1,E99", wantErr: `"E99"`},
		{spec: "E4b", wantErr: `"E4B"`},
		{spec: "E1,E5", wantErr: `"E5"`}, // its claim is a shape test now, not a table
		{spec: "E1,", wantErr: `""`},
		{spec: "", wantErr: `""`},
	} {
		got, err := selectExperiments(all, tc.spec)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("-exp %q: selected %d experiments, want an error", tc.spec, len(got))
			} else if !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "E1,E2,") {
				t.Errorf("-exp %q: error %q should name %s and list the valid IDs", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q: %v", tc.spec, err)
			continue
		}
		ids := make([]string, len(got))
		for i, e := range got {
			ids[i] = e.ID
		}
		if s := strings.Join(ids, ","); s != tc.want {
			t.Errorf("-exp %q selected %s, want %s", tc.spec, s, tc.want)
		}
	}
}
