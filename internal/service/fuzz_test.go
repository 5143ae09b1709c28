package service_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"awakemis"
	"awakemis/internal/service"
)

// FuzzCanonicalSpec feeds spec JSON through the daemon's trust
// boundary: whatever Validate accepts must canonicalize idempotently,
// hash the same before canonicalization, after it, and after a JSON
// round trip of the canonical form, and — at small n — run without
// panicking (an error is fine). The seed corpus lives in
// testdata/fuzz/FuzzCanonicalSpec.
func FuzzCanonicalSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec awakemis.Spec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		canon := service.Canonicalize(spec)
		if again := service.Canonicalize(canon); !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonicalize is not idempotent:\nonce:  %+v\ntwice: %+v", canon, again)
		}
		wire, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		var back awakemis.Spec
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("canonical form does not decode: %v\n%s", err, wire)
		}
		want, err := service.Hash(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]awakemis.Spec{"canonical": canon, "round-tripped": back} {
			if got, err := service.Hash(s); err != nil || got != want {
				t.Fatalf("Hash(%s) = %s, %v; want %s", name, got, err, want)
			}
		}
		if canon.Graph.N > 64 || spec.Options.N > 4096 {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		awakemis.Run(ctx, spec)
	})
}
