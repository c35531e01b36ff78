package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/speedgen"
)

// fuzzRequestID is the X-Request-ID every fuzzed request carries; error
// envelopes must echo it.
const fuzzRequestID = "fuzz-req-1"

// postEndpoints is every apiTable row that accepts a request body.
func postEndpoints() []endpointInfo {
	var out []endpointInfo
	for _, e := range apiTable {
		if slices.Contains(e.Methods, http.MethodPost) {
			out = append(out, e)
		}
	}
	return out
}

// apiBodySeeds is the seed corpus per POST endpoint: a well-formed body (so
// the fuzzer starts from the accepted shape) and the malformed neighbours
// each handler's validation is meant to reject. Seeds replay in order and
// share one server, so the workers seeds end on a registered pool and the
// select and route seeds reach their solvers.
var apiBodySeeds = map[string][]string{
	"workers":  {`{"workers":[{"road":-1}]}`, `{"workers":null}`, `{"workers":[{"road":1},{"road":3},{"road":7}]}`},
	"report":   {`{"road":1,"slot":100,"speed":42.5}`, `{"road":1,"slot":-3,"speed":1e308}`, `{"road":"x"}`},
	"select":   {`{"slot":100,"roads":[1,2],"budget":3,"theta":0.9,"selector":"Hybrid"}`, `{"slot":100,"roads":[1],"budget":-1,"theta":0}`, `{"slot":100,"selector":"Bogus"}`},
	"estimate": {`{"slot":100,"roads":[1,2],"observed":{"3":40}}`, `{"slot":100,"level":0.999999}`, `{"slot":10,"observed":{"nope":1}}`},
	"query":    {`{"queries":[{"slot":100,"roads":[1]},{"slot":101}]}`, `{"queries":[]}`, `{"queries":[{"slot":999999}]}`},
	"route":    {`{"src":3,"dst":41,"slot":100}`, `{"src":3,"dst":41,"slot":100,"budget":2,"objective":"RouteVar"}`, `{"src":0,"dst":0,"slot":100,"depart_minute":-1}`},
	"forecast": {`{"slot":100,"horizon":3,"roads":[1,2],"level":0.8}`, `{"slot":100,"horizon":0}`, `{"slot":100,"horizon":2,"roads":[-1]}`},
	"alerts":   {`{"slot":100,"predicates":[{"road":1,"speed_below":30,"confidence":0.9}]}`, `{"slot":100,"predicates":[{"road":1,"speed_below":-5}]}`, `{"predicates":[]}`},
	"model":    {`{"action":"rollback"}`, `{"action":"refit"}`, `{"action":""}`},
}

// FuzzAPIRequestBodies posts arbitrary bodies to every POST endpoint of the
// route inventory. Whatever the body, the handler must not panic, and every
// non-2xx answer must be the unified error envelope with the request's
// X-Request-ID echoed in both the header and request_id.
func FuzzAPIRequestBodies(f *testing.F) {
	endpoints := postEndpoints()
	for i, e := range endpoints {
		seeds, ok := apiBodySeeds[e.Name]
		if !ok {
			f.Fatalf("POST endpoint %q has no seed bodies", e.Name)
		}
		for _, body := range append([]string{``, `{`, `null`, `[]`, `{"slot":1e400}`}, seeds...) {
			f.Add(uint8(i), body)
		}
	}

	net := network.Synthetic(network.SyntheticOptions{Roads: 50, Seed: 3})
	h, err := speedgen.Generate(net, speedgen.Default(6, 4))
	if err != nil {
		f.Fatal(err)
	}
	sys, err := core.Train(net, h, core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	handler := New(sys).Handler()

	f.Fuzz(func(t *testing.T, idx uint8, body string) {
		e := endpoints[int(idx)%len(endpoints)]
		req := httptest.NewRequest(http.MethodPost, e.Path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", fuzzRequestID)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		if rec.Code >= 200 && rec.Code < 300 {
			return
		}
		var env errorEnvelope
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("%s %q: status %d body is not the error envelope: %v", e.Name, body, rec.Code, err)
		}
		if strings.HasPrefix(env.Error.Message, "internal panic") {
			t.Fatalf("%s %q: handler panicked: %s", e.Name, body, env.Error.Message)
		}
		if env.Error.Code != errorCode(rec.Code) || env.Error.Message == "" {
			t.Fatalf("%s %q: status %d envelope %+v", e.Name, body, rec.Code, env)
		}
		if env.Error.RequestID != fuzzRequestID || rec.Header().Get("X-Request-ID") != fuzzRequestID {
			t.Fatalf("%s %q: request id not echoed: envelope %q, header %q",
				e.Name, body, env.Error.RequestID, rec.Header().Get("X-Request-ID"))
		}
	})
}
