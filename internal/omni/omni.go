// Package omni implements BigQuery Omni (§5): running the BigQuery
// data plane on non-GCP clouds while keeping the control plane on GCP.
//
// A Deployment holds the control plane — the global catalog, the IAM
// authority, and the job server — plus one Region per deployed
// location. Each Region is a full data plane: its cloud's object
// store, a Big Metadata instance, a Dremel engine, a Storage API
// server and a BLMT manager, mirroring the "minimal borg-like
// environment" of §5.4. Regions are connected to the control plane by
// a simulated zero-trust VPN (§5.2) that charges cross-cloud RTTs,
// meters egress, enforces a per-region security realm (§5.3.3), and
// validates per-query session tokens at an untrusted proxy (§5.3.2).
//
// Cross-cloud queries (§5.6.1) split multi-region SQL into per-region
// subqueries with filter pushdown, stream the (small) subquery results
// back to the primary region as temporary tables, and rewrite the
// original query to join locally. Cross-cloud materialized views
// (§5.6.2) replicate managed tables incrementally, copying only
// changed files and recreating only the partitions touched by
// upserts/deletes.
package omni

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"biglake/internal/bigmeta"
	"biglake/internal/blmt"
	"biglake/internal/catalog"
	"biglake/internal/engine"
	"biglake/internal/objstore"
	"biglake/internal/obs"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/storageapi"
)

// Errors returned by Omni.
var (
	ErrNoRegion       = errors.New("omni: no such region")
	ErrRealmViolation = errors.New("omni: principal not in region security realm")
	ErrVPNDenied      = errors.New("omni: vpn policy denied the connection")
)

// Region is one deployed location's data plane.
type Region struct {
	Name  string // e.g. "aws-us-east-1"
	Cloud string // "gcp", "aws", "azure"

	Store      *objstore.Store
	Meta       *bigmeta.Cache
	Log        *bigmeta.Log
	Engine     *engine.Engine
	StorageAPI *storageapi.Server
	Manager    *blmt.Manager

	// realm is the region's private principal namespace (§5.3.3):
	// service identities allowed to operate inside this region. Every
	// Omni region gets a unique set, never shared with other regions.
	realm map[security.Principal]bool
}

// InRealm reports whether a principal may operate in this region.
func (r *Region) InRealm(p security.Principal) bool { return r.realm[p] }

// VPN is the QUIC-based zero-trust channel between the control plane
// and data planes (§5.2). Calls charge cross-cloud round trips,
// validate the allow-list, and meter the bytes moved.
type VPN struct {
	clock *sim.Clock

	mu      sync.Mutex
	vc      vpnCounters
	allowed map[string]bool // region names admitted to the VPN
}

// vpnCounters are the channel's pre-resolved "omni.*" counters.
type vpnCounters struct {
	calls, bytes, egress *obs.Counter
}

// NewVPN builds the channel, counting into a private registry until
// UseObs (NewDeployment calls it) points it at a shared one.
func NewVPN(clock *sim.Clock) *VPN {
	v := &VPN{clock: clock, allowed: make(map[string]bool)}
	v.UseObs(obs.NewRegistry())
	return v
}

// UseObs points the channel's call/byte/egress counters at a shared
// registry.
func (v *VPN) UseObs(r *obs.Registry) {
	if r == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.vc = vpnCounters{
		calls:  r.Counter("omni.vpn_calls"),
		bytes:  r.Counter("omni.vpn_bytes"),
		egress: r.Counter("omni.egress_bytes"),
	}
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
	ok, vc := v.allowed[toRegion], v.vc
	v.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrVPNDenied, toRegion)
	}
	if fromRegion == toRegion {
		ch.Charge(profile.IntraRegionRTT)
		return nil
	}
	ch.Charge(profile.CrossCloudRTT + sim.StreamTime(payloadBytes, profile.EgressPerMB))
	vc.calls.Add(1)
	vc.bytes.Add(payloadBytes)
	vc.egress.Add(payloadBytes)
	return nil
}

// Deployment is the whole multi-cloud installation.
type Deployment struct {
	Clock   *sim.Clock
	Catalog *catalog.Catalog
	Auth    *security.Authority
	VPN     *VPN
	// Obs is the deployment-wide metrics registry: control-plane
	// counters land under "omni.*" and every region's data plane
	// (object store, Big Metadata, engine, Storage API, BLMT manager)
	// counts into it too, so one snapshot covers the whole
	// installation.
	Obs *obs.Registry
	// Tracer, when set, records one span tree per submitted query with
	// per-region subquery spans and egress-byte attributes.
	Tracer *obs.Tracer
	// Res is the retry policy for cross-cloud transfer operations
	// (CCMV file copies/deletes). Nil behaves like resilience.NoRetry.
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
	admins = append(admins, ControlPrincipal)
	reg := obs.NewRegistry()
	d := &Deployment{
		Clock:   clock,
		Catalog: catalog.New(),
		Auth:    security.NewAuthority("omni-deployment-secret", admins...),
		VPN:     NewVPN(clock),
		Obs:     reg,
		Res:     resilience.DefaultPolicy(),
		regions: make(map[string]*Region),
	}
	d.VPN.UseObs(reg)
	return d
}

// AddRegion deploys a data plane in a region. The first GCP region
// becomes the primary.
func (d *Deployment) AddRegion(name, cloud string) (*Region, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.regions[name]; ok {
		return nil, fmt.Errorf("omni: region %q already deployed", name)
	}
	store := objstore.New(sim.ProfileFor(cloud), d.Clock)
	meta := bigmeta.NewCache(d.Clock)
	log := bigmeta.NewLog(d.Clock)
	stores := map[string]*objstore.Store{cloud: store}
	eng := engine.New(d.Catalog, d.Auth, meta, log, d.Clock, stores, engine.DefaultOptions())
	// Every region counts into the deployment's registry; the Storage
	// API and the BLMT manager inherit it from the log.
	store.UseObs(d.Obs)
	meta.UseObs(d.Obs)
	log.UseObs(d.Obs)
	eng.UseObs(d.Obs)
	srv := storageapi.NewServer(d.Catalog, d.Auth, meta, log, d.Clock, stores)
	mgr := blmt.New(d.Catalog, d.Auth, log, d.Clock, stores)
	mgr.DefaultCloud = cloud
	eng.SetMutator(mgr)

	// Region-unique service identity (the realm's LOAS user).
	svc := security.Principal(fmt.Sprintf("svc-%s@omni", name))
	managed := objstore.Credential{Principal: string(svc)}
	eng.ManagedCred = managed
	srv.ManagedCred = managed
	if err := store.CreateBucket(managed, "bq-managed-"+name); err != nil {
		return nil, err
	}
	mgr.DefaultBucket = "bq-managed-" + name
	mgr.DefaultConnection = "omni-" + name
	if err := d.Auth.RegisterConnection(ControlPrincipal, security.Connection{
		Name: "omni-" + name, ServiceAccount: managed, Cloud: cloud,
	}); err != nil {
		return nil, err
	}

	r := &Region{
		Name: name, Cloud: cloud,
		Store: store, Meta: meta, Log: log,
		Engine: eng, StorageAPI: srv, Manager: mgr,
		realm: map[security.Principal]bool{svc: true},
	}
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
