// Optimizer as a service: the advisor loop over real HTTP. This example
// starts an in-process arrow-serve server, opens a session for the
// Arrow (Augmented BO) method, and plays the measuring client: ask the
// server which VM to try next, "measure" it on the simulator, report
// the outcome — until the server's stopping rule fires and the result
// endpoint returns the recommendation. The same traffic works against a
// standalone `arrow-serve -addr :8080`.
//
// Run with:
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	arrow "repro"
	"repro/internal/serve"
)

func main() {
	// A real HTTP server on a loopback port. Outside this example:
	// `arrow-serve -addr :8080` and base = "http://localhost:8080".
	hs := httptest.NewServer(serve.New(serve.Config{}))
	defer hs.Close()
	base := hs.URL

	// The measuring side: the simulator plays the cloud. The server
	// never sees this object — it only ever sees our observations.
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		log.Fatal(err)
	}

	// Open a session: Arrow's Augmented BO, minimizing cost, seeded for
	// reproducibility.
	var info struct {
		ID            string `json:"id"`
		Method        string `json:"method"`
		NumCandidates int    `json:"num_candidates"`
	}
	post(base+"/v1/sessions", map[string]any{
		"method":    "augmented-bo",
		"objective": "cost",
		"seed":      42,
	}, &info)
	fmt.Printf("session %s: %s over %d candidate VMs\n\n", info.ID, info.Method, info.NumCandidates)

	// The advisor loop: next -> measure -> observe. Each observe plans the
	// following suggestion and returns it as "next", so after the first
	// GET a step costs one round trip. (While suggestions of a /nextbatch
	// batch are unobserved, the response omits next and GET next plans.)
	var sug arrow.Suggestion
	get(base+"/v1/sessions/"+info.ID+"/next", &sug)
	for step := 1; !sug.Done; step++ {
		out, merr := target.Measure(sug.Index)
		obs := map[string]any{"index": sug.Index}
		if merr != nil {
			obs["failed"] = true
			obs["reason"] = merr.Error()
			fmt.Printf("  step %2d: %-12s measurement failed (%v)\n", step, sug.Name, merr)
		} else {
			obs["time_sec"] = out.TimeSec
			obs["cost_usd"] = out.CostUSD
			obs["metrics"] = out.Metrics
			fmt.Printf("  step %2d: %-12s %6.0f s  $%.3f\n", step, sug.Name, out.TimeSec, out.CostUSD)
		}
		var ack serve.ObserveResponse
		post(base+"/v1/sessions/"+info.ID+"/observe", obs, &ack)
		sug = *ack.Next
	}

	// The recommendation.
	var res struct {
		Result *arrow.Result `json:"result"`
	}
	get(base+"/v1/sessions/"+info.ID+"/result", &res)
	fmt.Printf("\nrecommendation after %d measurements: %s (cost %.4f)\n",
		res.Result.NumMeasurements(), res.Result.BestName, res.Result.BestValue)
	fmt.Printf("stopped early: %v (%s)\n", res.Result.StoppedEarly, res.Result.StopReason)
}

// post sends a JSON body and decodes the JSON response into out.
func post(url string, body, out any) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

// get decodes a JSON response into out.
func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func decode(resp *http.Response, out any) {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("%s: %d %s", resp.Request.URL, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
