package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lvp/internal/locality"
)

// FuzzCellRequest sends arbitrary bodies to POST /v1/cells on a Manager
// whose CellRunner is a stub, so decoding, cell validation and the scale
// bound run on hostile input while no simulation does. Nothing may panic,
// and every answer is either 200 with the runner's bytes or a 4xx whose
// body is a JSON error.
func FuzzCellRequest(f *testing.F) {
	depths := make([]int, locality.MaxDepth+1)
	for i := range depths {
		depths[i] = i + 1
	}
	for _, req := range []CellRequest{
		{Cell: Cell{Kind: "sim", Bench: "quick", Machine: Machine620, Config: "Simple"}},
		{Cell: Cell{Kind: "locality", Bench: "grep", Target: "ppc", Depths: []int{1, 16}}, Scale: 2},
		{Cell: Cell{Kind: "zoo", Bench: "gperf", Predictor: "two-level"}},
		{Cell: Cell{Kind: "locality", Bench: "grep", Target: "ppc", Depths: depths}},
		{Cell: Cell{Kind: "sim", Bench: "quick", Machine: "z80", Config: "Simple"}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"cell":{"kind":"sim","bench":"quick","machine":"620","config":"none"},"scale":9}`))
	f.Add([]byte(`{"cell":{},"extra":1}`))
	f.Add([]byte(`{`))

	stub := json.RawMessage(`{"stub":true}`)
	mgr := NewManager(Config{Workers: 1, CellRunner: func(context.Context, Cell, int) (json.RawMessage, error) {
		return stub, nil
	}})
	f.Cleanup(func() { mgr.Shutdown(context.Background()) })
	h := NewHandler(mgr)

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cells", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK:
			if !bytes.Equal(rec.Body.Bytes(), stub) {
				t.Fatalf("200 for %q answered %q, want the runner's bytes", body, rec.Body.Bytes())
			}
		case code >= 400 && code < 500:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d for %q answered %q, want a JSON error", code, body, rec.Body.Bytes())
			}
		default:
			t.Fatalf("%d for %q: %s", code, body, rec.Body.Bytes())
		}
	})
}
