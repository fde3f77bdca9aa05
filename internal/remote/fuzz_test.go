package remote

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/index/grid"
	"repro/internal/shard"
)

// FuzzShardWire drives arbitrary bodies through the shard's probe handlers
// and arbitrary batch responses through the coordinator's validation.
//
// Server side: every probe route must answer 200 or 400 — a malformed,
// oversized or out-of-contract request is the client's fault, never a
// panic or a 500. Client side: a BatchProbeResponse that passes validate
// for n focals must rebuild into exactly n spans without indexing out of
// range.
func FuzzShardWire(f *testing.F) {
	seeds := []string{
		`{"x":500,"y":500,"k":5}`,
		`{"x":1,"y":2,"k":3,"threshold_sq":100}`,
		`{"x":1e308,"y":-1e308,"k":9223372036854775807}`,
		`{"xs":[1,2,3],"ys":[4,5,6],"k":4}`,
		`{"xs":[1,2],"ys":[4,5],"k":2,"thresholds_sq":[10,-1]}`,
		`{"xs":[1,2],"ys":[4],"k":2}`,
		`{"xs":[],"ys":[],"k":1}`,
		`{"xs":[1e308],"ys":[-1e308],"k":1,"thresholds_sq":[1e308]}`,
		`{"ids":[1,2],"xs":[1,2],"ys":[1,2],"d_sqs":[1,4],"off":[0,1,2]}`,
		`{"ids":[1],"xs":[1],"ys":[1],"d_sqs":[1],"off":[0,5]}`,
		`{"k":0}`,
		`{"k":-1,"frobnicate":true}`,
		`null`,
		`[]`,
		`{}`,
	}
	for i, s := range seeds {
		f.Add([]byte(s), uint8(i), uint8(i%4))
	}

	ix, err := grid.New(testPoints(300, 50), grid.Options{TargetPerCell: 16, Bounds: testBounds})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewShardServer(core.NewRelation(ix), ShardServerConfig{Name: "fuzz"})
	routes := []Op{OpNeighborhood, OpWithin, OpCount, OpBatch}

	f.Fuzz(func(t *testing.T, body []byte, route, focals uint8) {
		path := pathPrefix + "/" + routes[int(route)%len(routes)].String()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("%s answered %d for %q: %s", path, rec.Code, body, rec.Body)
		}

		var resp BatchProbeResponse
		if json.Unmarshal(body, &resp) != nil {
			return
		}
		n := int(focals)
		if resp.validate(n) != nil {
			return
		}
		var spans shard.Spans
		resp.appendSpans(&spans)
		if spans.Len() != n {
			t.Fatalf("valid response for %d focals rebuilt %d spans", n, spans.Len())
		}
		total := 0
		for i := 0; i < n; i++ {
			pts, dists := spans.Span(i)
			if len(pts) != len(dists) {
				t.Fatalf("span %d: %d points, %d distances", i, len(pts), len(dists))
			}
			total += len(pts)
		}
		if total != len(resp.IDs) {
			t.Fatalf("spans hold %d candidates, response %d", total, len(resp.IDs))
		}
	})
}
