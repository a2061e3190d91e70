// Package omni implements BigQuery Omni (§5): running the BigQuery
// data plane on non-GCP clouds while keeping the control plane on GCP.
//
// A Deployment is a core.ControlPlane — the one catalog, IAM authority
// and registry — plus the job server, and one Region per deployed
// location. Each Region is a core.Lakehouse deployed on that control
// plane: its cloud's object store, journal, Big Metadata, Dremel
// engine, Storage API and BLMT manager, assembled and restarted
// (Lakehouse.Recover) exactly like a single-region lakehouse — the
// "minimal borg-like environment" of §5.4. Regions are connected to
// the control plane by a simulated zero-trust VPN (§5.2) that charges
// cross-cloud RTTs, meters egress, enforces a per-region security
// realm (§5.3.3), and validates per-query session tokens at an
// untrusted proxy (§5.3.2).
//
// Cross-cloud queries (§5.6.1) split multi-region SQL into per-region
// subqueries with filter pushdown, stream the (small) subquery results
// back to the primary region as temporary tables, and rewrite the
// original query to join locally. Cross-cloud materialized views
// (§5.6.2) replicate managed tables incrementally, copying only
// changed files and recreating only the partitions touched by
// upserts/deletes. Both write through the region log's one commit
// protocol (bigmeta.CommitFiles), so they journal and recover like
// every other commit.
package omni

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"biglake/internal/core"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
)

// Errors returned by Omni.
var (
	ErrNoRegion       = errors.New("omni: no such region")
	ErrRealmViolation = errors.New("omni: principal not in region security realm")
	ErrVPNDenied      = errors.New("omni: vpn policy denied the connection")
)

// Region is one deployed location's data plane: a lakehouse on the
// deployment's control plane.
type Region struct {
	*core.Lakehouse
	Name  string // e.g. "aws-us-east-1"
	Cloud string // "gcp", "aws", "azure"
}

// InRealm reports whether a principal may operate in this region. The
// realm (§5.3.3) is the region's own service account, which no other
// region shares.
func (r *Region) InRealm(p security.Principal) bool {
	return string(p) == r.ServiceAccount().Principal
}

// VPN is the QUIC-based zero-trust channel between the control plane
// and data planes (§5.2). Calls charge cross-cloud round trips,
// validate the allow-list, and meter the bytes moved.
type VPN struct {
	calls, bytes, egress *obs.Counter

	mu      sync.Mutex
	allowed map[string]bool // region names admitted to the VPN
}

// NewVPN builds the channel, counting "omni.*" into reg.
func NewVPN(reg *obs.Registry) *VPN {
	return &VPN{allowed: make(map[string]bool),
		calls:  reg.Counter("omni.vpn_calls"),
		bytes:  reg.Counter("omni.vpn_bytes"),
		egress: reg.Counter("omni.egress_bytes")}
}

// Admit allow-lists a region endpoint.
func (v *VPN) Admit(region string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.allowed[region] = true
}

// Call models one control-plane <-> data-plane RPC carrying
// payloadBytes, returning an error if the endpoint is not
// allow-listed. Latency lands on ch.
func (v *VPN) Call(ch sim.Charger, fromRegion, toRegion string, payloadBytes int64, profile sim.CloudProfile) error {
	v.mu.Lock()
	ok := v.allowed[toRegion]
	v.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrVPNDenied, toRegion)
	}
	if fromRegion == toRegion {
		ch.Charge(profile.IntraRegionRTT)
		return nil
	}
	ch.Charge(profile.CrossCloudRTT + sim.StreamTime(payloadBytes, profile.EgressPerMB))
	v.calls.Add(1)
	v.bytes.Add(payloadBytes)
	v.egress.Add(payloadBytes)
	return nil
}

// Deployment is the whole multi-cloud installation: the control plane
// every region is deployed on — its Obs registry holds the "omni.*"
// counters and every region's data plane counts into it too, so one
// snapshot covers the whole installation — and the job server.
type Deployment struct {
	*core.ControlPlane
	VPN *VPN
	// Tracer, when set, records one span tree per submitted query with
	// per-region subquery spans and egress-byte attributes.
	Tracer *obs.Tracer
	// Res is the retry policy for cross-cloud transfer operations
	// (CCMV source reads and replica commits). Nil behaves like
	// resilience.NoRetry.
	Res *resilience.Policy

	// Primary is the control plane's home region (a GCP region).
	Primary string

	mu      sync.Mutex
	regions map[string]*Region
	tempSeq int
}

// NewDeployment creates a deployment with a control plane and no
// regions yet.
func NewDeployment(clock *sim.Clock, admins ...security.Principal) *Deployment {
	cp := core.NewControlPlane(clock, "omni-deployment-secret", append(admins, ControlPrincipal)...)
	return &Deployment{
		ControlPlane: cp,
		VPN:          NewVPN(cp.Obs),
		Res:          resilience.DefaultPolicy(),
		regions:      make(map[string]*Region),
	}
}

// AddRegion deploys a lakehouse in a region on the control plane. The
// first GCP region becomes the primary.
func (d *Deployment) AddRegion(name, cloud string) (*Region, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.regions[name]; ok {
		return nil, fmt.Errorf("omni: region %q already deployed", name)
	}
	lh, err := d.Deploy(core.Options{Cloud: cloud, Region: name, Admin: ControlPrincipal})
	if err != nil {
		return nil, err
	}
	r := &Region{Lakehouse: lh, Name: name, Cloud: cloud}
	d.regions[name] = r
	d.VPN.Admit(name)
	if d.Primary == "" && cloud == "gcp" {
		d.Primary = name
	}
	return r, nil
}

// Region resolves a deployed region.
func (d *Deployment) Region(name string) (*Region, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.regions[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRegion, name)
	}
	return r, nil
}

// UntrustedProxy sits between foreign-cloud Dremel workers and
// control-plane services (§5.3.2): it terminates the worker's
// connection, validates the per-query session token (signature,
// expiry, table scope) and the region realm, and only then forwards
// the request.
type UntrustedProxy struct {
	dep *Deployment
}

// Proxy returns the deployment's untrusted proxy.
func (d *Deployment) Proxy() *UntrustedProxy { return &UntrustedProxy{dep: d} }

// Authorize validates one data-plane request against its session
// token: the token must verify, the table must be in the query's
// scope, and the calling service identity must belong to the region's
// realm.
func (p *UntrustedProxy) Authorize(tok security.SessionToken, region string, svc security.Principal, table string) error {
	r, err := p.dep.Region(region)
	if err != nil {
		return err
	}
	if !r.InRealm(svc) {
		return fmt.Errorf("%w: %s in %s", ErrRealmViolation, svc, region)
	}
	if tok.Region != region {
		return fmt.Errorf("%w: token for region %s used in %s", security.ErrBadToken, tok.Region, region)
	}
	return p.dep.Auth.ValidateToken(tok, p.dep.Clock.Now(), table)
}

// scopeFor computes the object-path superset a query over the given
// tables needs (§5.3.1), for credential down-scoping.
func (d *Deployment) scopeFor(tables []string) ([]string, error) {
	var out []string
	for _, name := range tables {
		t, err := d.Catalog.Table(name)
		if err != nil {
			return nil, err
		}
		if t.Prefix != "" {
			out = append(out, t.Prefix)
		}
	}
	return out, nil
}

// TokenTTL bounds per-query session tokens.
const TokenTTL = 15 * time.Minute
