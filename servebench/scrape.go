package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/server"
)

// scrapeMetrics reads a served knnserve's /metrics.
func scrapeMetrics(base string) (*server.MetricsResponse, error) {
	res, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", res.StatusCode)
	}
	var m server.MetricsResponse
	if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &m, nil
}
