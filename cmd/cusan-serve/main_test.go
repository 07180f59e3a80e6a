package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"cusango/internal/serve"
)

// TestMuxServesPprofAndAPI: the daemon's mux answers the pprof
// endpoints next to the API, and the API routes still reach the server.
func TestMuxServesPprofAndAPI(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1, Salt: "test-salt"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Drain)
	hs := httptest.NewServer(newMux(srv.Handler()))
	t.Cleanup(hs.Close)

	for _, path := range []string{"/debug/pprof/cmdline", "/debug/pprof/", "/v1/status"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nope: status %d, want 404", resp.StatusCode)
	}
}
