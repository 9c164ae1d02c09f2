package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParsePools: on arbitrary input ParsePools returns an error or a valid
// configuration, and never panics. Valid means the input was exactly one
// JSON value, every pool has a distinct non-empty name and usable admission
// limits, and the configuration re-encodes to JSON that parses back to
// itself.
func FuzzParsePools(f *testing.F) {
	f.Add(`[{"name":"interactive","weight":3,"minShare":8,"maxConcurrent":8},{"name":"batch","weight":1,"maxQueue":4}]`)
	f.Add(`[{"name":"a","maxQueue":-1,"maxConcurrent":-5,"weight":-2,"minShare":-1}]`)
	f.Add(`[{"name":"a"},{"name":"a"}]`)
	f.Add(`[{"name":""}]`)
	f.Add(`[{"name":"a","extra":1}]`)
	f.Add(`[{"NAME":"a"}]`)
	f.Add(`[{"name":"a"}]garbage`)
	f.Add(`[] []`)
	f.Add(`null`)
	f.Add(`[{"name":"a","weight":1e3}]`)
	f.Add(`[{"name":"a","weight":9223372036854775808}]`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, in string) {
		pools, err := ParsePools(strings.NewReader(in))
		if err != nil {
			return
		}
		if !json.Valid([]byte(in)) {
			t.Fatalf("accepted %q, which is not one JSON value", in)
		}
		seen := map[string]bool{}
		for _, p := range pools {
			if p.Name == "" || seen[p.Name] {
				t.Fatalf("accepted %q: pool name %q empty or repeated", in, p.Name)
			}
			seen[p.Name] = true
			if p.maxConcurrent() < 1 || p.maxQueue() < 0 {
				t.Fatalf("accepted %q: pool %q runs %d and queues %d", in, p.Name, p.maxConcurrent(), p.maxQueue())
			}
		}
		out, err := json.Marshal(pools)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParsePools(strings.NewReader(string(out)))
		if err != nil {
			t.Fatalf("re-parsing %s (from %q): %v", out, in, err)
		}
		if !reflect.DeepEqual(back, pools) {
			t.Fatalf("round trip of %q: %+v, then %+v", in, pools, back)
		}
	})
}
