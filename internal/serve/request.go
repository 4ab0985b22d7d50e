package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/sim"
)

// RunRequest submits one scenario for a single observed run (the
// meshsim -report shape). Scenario is an overlay over sim.DefaultScenario,
// exactly the LoadScenario contract, so a request can be as small as
// {"scenario":{"Scheme":"flood"}}.
type RunRequest struct {
	Scenario json.RawMessage `json:"scenario"`

	// SampleInterval is the flight recorder's sampling period in
	// nanoseconds of simulated time (0 = sim.DefaultSampleInterval, meshsim's default).
	SampleInterval des.Time `json:"sample_interval,omitempty"`

	// JourneyEveryN, when positive, traces packet journeys on 1-in-N flows
	// and folds the per-layer delay decomposition into the report.
	JourneyEveryN int `json:"journey_every_n,omitempty"`
}

// SweepRequest submits a replication sweep: Reps replications of the
// scenario under each requested scheme, one checkpointable cell per
// scheme — the comparative-study workload shape.
type SweepRequest struct {
	// Name labels the sweep's cells ("<name> <scheme>"); defaults to the
	// scenario name.
	Name     string          `json:"name,omitempty"`
	Scenario json.RawMessage `json:"scenario"`

	// Schemes lists the routing schemes to compare (default: the
	// scenario's own scheme). "all" expands to the paper's comparison set.
	Schemes []string `json:"schemes,omitempty"`

	// Reps is the replication count per cell (replication r runs with
	// Seed+r). Must be positive.
	Reps int `json:"reps"`

	// JourneyEveryN, when positive, folds the journey delay decomposition
	// into every cell report.
	JourneyEveryN int `json:"journey_every_n,omitempty"`
}

// runJob is a fully normalized single-run submission.
type runJob struct {
	sc   sim.Scenario
	opts sim.ObserveOptions
}

// sweepJob is a fully normalized sweep submission.
type sweepJob struct {
	name     string
	base     sim.Scenario
	schemes  []sim.Scheme
	reps     int
	journeyN int
}

// decodeRequest parses the first JSON value of a request body into v,
// refusing unknown fields. Bytes after that value are not examined.
func decodeRequest(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeRun is the whole /v1/run body → runJob chain.
func decodeRun(body []byte) (runJob, error) {
	var req RunRequest
	if err := decodeRequest(body, &req); err != nil {
		return runJob{}, err
	}
	return normalizeRun(req)
}

// decodeSweep is the whole /v1/sweep body → sweepJob chain.
func decodeSweep(body []byte) (sweepJob, error) {
	var req SweepRequest
	if err := decodeRequest(body, &req); err != nil {
		return sweepJob{}, err
	}
	return normalizeSweep(req)
}

// decodeScenario applies the overlay semantics shared with
// sim.LoadScenario: absent fields keep their DefaultScenario values.
func decodeScenario(raw json.RawMessage) (sim.Scenario, error) {
	sc := sim.DefaultScenario()
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &sc); err != nil {
			return sc, fmt.Errorf("serve: parsing scenario: %w", err)
		}
	}
	if err := sc.Validate(); err != nil {
		return sc, err
	}
	return sc, nil
}

// normalizeRun validates a RunRequest into a runJob.
func normalizeRun(req RunRequest) (runJob, error) {
	sc, err := decodeScenario(req.Scenario)
	if err != nil {
		return runJob{}, err
	}
	if req.JourneyEveryN < 0 {
		return runJob{}, fmt.Errorf("serve: negative journey divisor %d", req.JourneyEveryN)
	}
	if req.SampleInterval < 0 {
		return runJob{}, fmt.Errorf("serve: negative sample interval %d", req.SampleInterval)
	}
	opts := sim.ObserveOptions{Collect: true, Interval: req.SampleInterval, JourneyEvery: req.JourneyEveryN}
	if opts.Interval == 0 {
		opts.Interval = sim.DefaultSampleInterval
	}
	return runJob{sc: sc, opts: opts}, nil
}

// normalizeSweep validates a SweepRequest into a sweepJob.
func normalizeSweep(req SweepRequest) (sweepJob, error) {
	sc, err := decodeScenario(req.Scenario)
	if err != nil {
		return sweepJob{}, err
	}
	if req.Reps <= 0 {
		return sweepJob{}, fmt.Errorf("serve: non-positive replication count %d", req.Reps)
	}
	if req.JourneyEveryN < 0 {
		return sweepJob{}, fmt.Errorf("serve: negative journey divisor %d", req.JourneyEveryN)
	}
	var schemes []sim.Scheme
	switch {
	case len(req.Schemes) == 1 && req.Schemes[0] == "all":
		schemes = sim.AllSchemes()
	case len(req.Schemes) > 0:
		// Deduplicate while preserving order: duplicate schemes would
		// produce cells with identical labels sharing one checkpoint file,
		// and would split the cache between equivalent submissions.
		seen := make(map[sim.Scheme]bool, len(req.Schemes))
		for _, s := range req.Schemes {
			scheme := sim.Scheme(s)
			if seen[scheme] {
				continue
			}
			seen[scheme] = true
			schemes = append(schemes, scheme)
		}
	default:
		schemes = []sim.Scheme{sc.Scheme}
	}
	for _, scheme := range schemes {
		if err := sc.WithScheme(scheme).Validate(); err != nil {
			return sweepJob{}, err
		}
	}
	name := req.Name
	if name == "" {
		name = sc.Name
	}
	return sweepJob{
		name: name, base: sc, schemes: schemes,
		reps: req.Reps, journeyN: req.JourneyEveryN,
	}, nil
}

// cells expands the sweep into its CellSpecs, one per scheme.
func (j sweepJob) cells() []experiments.CellSpec {
	specs := make([]experiments.CellSpec, len(j.schemes))
	for i, scheme := range j.schemes {
		specs[i] = experiments.CellSpec{
			Label:    fmt.Sprintf("%s %s", j.name, scheme),
			Scenario: j.base.WithScheme(scheme),
		}
	}
	return specs
}

// keyMaterial is everything that may legally change a job's result bytes.
// Scenario.Fingerprint covers every scenario field (the reflection guard
// in internal/sim enforces that as fields are added); the run parameters
// living outside the Scenario struct — replication count, journey-sampling
// divisor, metrics sampling interval, scheme set — are folded in here.
// Forgetting one would be a silent cache-collision bug: two different
// computations sharing one cache slot. ModelVersion is sim.ModelVersion, so
// results of another model — a cache directory an older build wrote — are
// never served as this one's.
type keyMaterial struct {
	Kind           string   `json:"kind"`
	ModelVersion   int      `json:"model_version"`
	Fingerprint    string   `json:"fingerprint"`
	SampleInterval des.Time `json:"sample_interval,omitempty"`
	JourneyEveryN  int      `json:"journey_every_n,omitempty"`
	Reps           int      `json:"reps,omitempty"`
	Schemes        []string `json:"schemes,omitempty"`
	// Name is baked into the served bytes (SweepReport.Name and every
	// cell label), so two sweeps differing only in name must not share a
	// cache slot.
	Name string `json:"name,omitempty"`
}

// hash derives the content address: SHA-256 over the canonical JSON of
// the key material.
func (m keyMaterial) hash() string {
	b, err := json.Marshal(m)
	if err != nil {
		// keyMaterial is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: key marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (j runJob) key() string {
	return keyMaterial{
		Kind:           "run",
		ModelVersion:   sim.ModelVersion,
		Fingerprint:    j.sc.Fingerprint(),
		SampleInterval: j.opts.Interval,
		JourneyEveryN:  j.opts.JourneyEvery,
	}.hash()
}

func (j sweepJob) key() string {
	names := make([]string, len(j.schemes))
	for i, s := range j.schemes {
		names[i] = string(s)
	}
	return keyMaterial{
		Kind:          "sweep",
		ModelVersion:  sim.ModelVersion,
		Fingerprint:   j.base.Fingerprint(),
		JourneyEveryN: j.journeyN,
		Reps:          j.reps,
		Schemes:       names,
		Name:          j.name,
	}.hash()
}
