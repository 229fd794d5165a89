// Package jobkey derives the content address of a job's result from its
// api.JobSpec. It is the single definition shared by the impserve backends
// (internal/service keys its result store with it) and the improuter
// front-end (internal/router hashes it onto the backend ring), so a spec
// routed by the router lands on the backend whose store already holds — or
// will hold — that key. Splitting the two definitions would silently break
// cache locality; keep them one.
package jobkey

import (
	"encoding/json"
	"fmt"

	"github.com/impsim/imp/api"
	"github.com/impsim/imp/internal/blobstore"
	"github.com/impsim/imp/internal/trace"
	"github.com/impsim/imp/internal/workload"
)

// ResultKey derives the content address of a job's result. Like the trace
// cache key (internal/progcache), it covers everything the output depends
// on: the normalized spec plus the trace format and workload generator
// versions, so bumping either invalidates stale results implicitly.
// Parallelism, timeout and priority are execution hints, not inputs —
// results are byte-identical at any setting — so they are zeroed out of
// the key (an interactive and a bulk submission of the same work share
// one cached result).
func ResultKey(spec api.JobSpec) (string, error) {
	spec.Normalize()
	spec.Parallelism = 0
	spec.TimeoutSec = 0
	spec.Priority = ""
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("jobkey: keying job spec: %w", err)
	}
	prefix := fmt.Sprintf("impjob|fmt%d|gen%d|", trace.FormatVersion, workload.GenVersion)
	return blobstore.Key(prefix, b), nil
}
