package jobs

import "congestmwc"

// Info is the admission-time view of a job spec: everything a router or
// admission controller needs to place, deduplicate and cost a job without
// running it. It is produced by Spec.Inspect, which resolves the spec
// exactly the way Submit does, so Key here and the key the owning worker
// computes are identical — the property cluster-wide dedup rests on.
type Info struct {
	// Key is the canonical cache key (graph hash + options fingerprint).
	// Identical work has an identical key, across processes.
	Key string
	// Tenant is the spec's tenant attribution (empty = default tenant).
	Tenant string
	// Cost is the job's admission weight for fair queueing and tenant
	// quotas: the resolved algorithm's estimated rounds + messages from
	// the portfolio registry's cost model.
	Cost float64
}

// Inspect validates and resolves the spec without admitting it, returning
// the canonical key and the estimated cost that drive placement and
// admission. maxN caps the instance size exactly as Submit does (<= 0
// disables). The resolved graph is discarded: callers that also Submit
// pay the build twice, which is the price of a shared-nothing
// router/worker split.
func (s Spec) Inspect(maxN int) (Info, error) {
	r, err := s.resolve(maxN)
	if err != nil {
		return Info{}, err
	}
	// resolve has checked the name against the registry.
	a, _ := congestmwc.AlgorithmByName(string(r.algo))
	c := a.Estimate(congestmwc.FeaturesOf(r.g), r.opts.Eps)
	return Info{
		Key:    cacheKey(r.g, r.algo, r.opts),
		Tenant: s.Tenant,
		Cost:   c.Rounds + c.Messages,
	}, nil
}
