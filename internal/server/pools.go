// Serving pools: the JSON-configurable counterpart of Spark's
// fairscheduler.xml, extended with the admission-control knobs a long-running
// driver service needs. Each pool carries the two scheduling parameters Spark
// defines (weight, minShare) plus two serving parameters Spark leaves to
// external gateways: how many requests may run concurrently and how many may
// queue behind them before the server pushes back with 429.

package server

import (
	"encoding/json"
	"fmt"
	"io"

	"sparkscore/internal/rdd"
)

// Defaults applied to pool fields left zero.
const (
	DefaultMaxQueue      = 16
	DefaultMaxConcurrent = 4
)

// PoolConfig declares one serving pool.
type PoolConfig struct {
	Name string `json:"name"`
	// Weight is the pool's FAIR share relative to other pools (0 selects 1).
	Weight int `json:"weight,omitempty"`
	// MinShare is the core-slot floor the pool is raised to while it has
	// running jobs.
	MinShare int `json:"minShare,omitempty"`
	// MaxConcurrent caps how many requests from this pool run at once
	// (0 selects DefaultMaxConcurrent).
	MaxConcurrent int `json:"maxConcurrent,omitempty"`
	// MaxQueue caps how many admitted requests may wait behind the running
	// ones; a request arriving beyond the cap is rejected with 429
	// (0 selects DefaultMaxQueue, -1 means no queueing at all).
	MaxQueue int `json:"maxQueue,omitempty"`
}

func (p PoolConfig) maxConcurrent() int {
	if p.MaxConcurrent <= 0 {
		return DefaultMaxConcurrent
	}
	return p.MaxConcurrent
}

func (p PoolConfig) maxQueue() int {
	switch {
	case p.MaxQueue < 0:
		return 0
	case p.MaxQueue == 0:
		return DefaultMaxQueue
	}
	return p.MaxQueue
}

// ParsePools decodes a JSON array of pool declarations, e.g.
//
//	[{"name":"interactive","weight":3,"minShare":8,"maxConcurrent":8},
//	 {"name":"batch","weight":1,"maxQueue":4}]
//
// Anything after the array is an error, as it is in a request body.
func ParsePools(r io.Reader) ([]PoolConfig, error) {
	var pools []PoolConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pools); err != nil {
		return nil, fmt.Errorf("server: parsing pools: %w", err)
	}
	if _, tail := dec.Token(); tail != io.EOF {
		return nil, fmt.Errorf("server: parsing pools: data after the JSON array")
	}
	seen := map[string]bool{}
	for _, p := range pools {
		if p.Name == "" {
			return nil, fmt.Errorf("server: pool with empty name")
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("server: duplicate pool %q", p.Name)
		}
		seen[p.Name] = true
	}
	return pools, nil
}

// SchedulerConfig converts the serving pools into the engine's scheduler
// configuration: the scheduling half (weight, minShare) goes to the job
// arbiter; the admission half (maxConcurrent, maxQueue) stays in the server.
func SchedulerConfig(mode rdd.SchedulerMode, pools []PoolConfig) rdd.SchedulerConfig {
	cfg := rdd.SchedulerConfig{Mode: mode}
	for _, p := range pools {
		cfg.Pools = append(cfg.Pools, rdd.PoolSpec{
			Name: p.Name, Weight: p.Weight, MinShare: p.MinShare,
		})
	}
	return cfg
}
