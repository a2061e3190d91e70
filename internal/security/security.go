// Package security implements BigLake's governance layer: IAM
// principals and roles, connection objects for the delegated access
// model (§3.1), and the fine-grained access controls of §3.2 —
// column-level security, data masking, and row-level filtering — that
// are enforced uniformly for BigQuery and for external engines inside
// the Storage Read API trust boundary, with zero trust granted to the
// query engine itself.
package security

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/vector"
)

// Errors returned by governance checks.
var (
	ErrDenied       = errors.New("security: access denied")
	ErrNoConnection = errors.New("security: no such connection")
	ErrBadToken     = errors.New("security: invalid session token")
)

// Principal is a user or service-account identity.
type Principal string

// Role is a coarse-grained access level on a resource.
type Role int

// Roles, ordered by privilege.
const (
	RoleNone Role = iota
	RoleViewer
	RoleEditor
	RoleOwner
)

func (r Role) String() string {
	switch r {
	case RoleViewer:
		return "VIEWER"
	case RoleEditor:
		return "EDITOR"
	case RoleOwner:
		return "OWNER"
	}
	return "NONE"
}

// Connection is the delegated-access object of §3.1: it binds a name
// to a service-account credential that has (read) access to the object
// store. Queries and background maintenance use the connection's
// credential, never the querying user's, so users need no direct
// access to raw data files.
type Connection struct {
	Name           string
	ServiceAccount objstore.Credential
	// Cloud names which cloud's object store the connection targets
	// ("gcp", "aws", "azure"); Omni uses it for routing.
	Cloud string
}

// ColumnPolicy protects one column. Principals in Allowed see raw
// values. Everyone else sees the Mask transform; Mask == MaskNone
// means the column is access-denied rather than masked (BigQuery
// column-level security semantics).
type ColumnPolicy struct {
	Column  string
	Allowed map[Principal]bool
	Mask    vector.MaskKind
}

// RowPolicy grants its grantees visibility of the rows matching the
// predicate conjunction. BigQuery semantics: once any row policy
// exists on a table, a principal sees exactly the union of rows from
// policies that list it; a principal granted by no policy sees no
// rows.
type RowPolicy struct {
	Name     string
	Grantees map[Principal]bool
	Filter   []colfmt.Predicate
}

// TablePolicy is the full governance state for one table.
type TablePolicy struct {
	ACL           map[Principal]Role
	ColumnPolices []ColumnPolicy
	RowPolicies   []RowPolicy
}

// Authority is the central policy store and enforcement engine — the
// "security/governance" horizontal service of Figure 1. One Authority
// instance governs a deployment; Omni regions hold replicas keyed by
// the same table names (metadata lives in the control plane).
type Authority struct {
	mu          sync.RWMutex
	tables      map[string]*TablePolicy
	connections map[string]Connection
	admins      map[Principal]bool
	tokenSecret []byte
}

// NewAuthority creates an Authority with the given administrators and
// an HMAC secret for session tokens.
func NewAuthority(tokenSecret string, admins ...Principal) *Authority {
	a := &Authority{
		tables:      make(map[string]*TablePolicy),
		connections: make(map[string]Connection),
		admins:      make(map[Principal]bool),
		tokenSecret: []byte(tokenSecret),
	}
	for _, p := range admins {
		a.admins[p] = true
	}
	return a
}

func (a *Authority) policy(table string) *TablePolicy {
	tp, ok := a.tables[table]
	if !ok {
		tp = &TablePolicy{ACL: make(map[Principal]Role)}
		a.tables[table] = tp
	}
	return tp
}

// GrantTable sets a principal's role on a table. Only admins and table
// owners may grant.
func (a *Authority) GrantTable(granter Principal, table string, p Principal, r Role) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	tp := a.policy(table)
	if !a.admins[granter] && tp.ACL[granter] < RoleOwner {
		return fmt.Errorf("%w: %s cannot grant on %s", ErrDenied, granter, table)
	}
	tp.ACL[p] = r
	return nil
}

// RoleOn returns the principal's role on a table (admins are owners
// everywhere).
func (a *Authority) RoleOn(p Principal, table string) Role {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.admins[p] {
		return RoleOwner
	}
	tp, ok := a.tables[table]
	if !ok {
		return RoleNone
	}
	return tp.ACL[p]
}

// CheckRead verifies read access to the table.
func (a *Authority) CheckRead(p Principal, table string) error {
	if a.RoleOn(p, table) < RoleViewer {
		return fmt.Errorf("%w: %s cannot read %s", ErrDenied, p, table)
	}
	return nil
}

// CheckWrite verifies write access to the table.
func (a *Authority) CheckWrite(p Principal, table string) error {
	if a.RoleOn(p, table) < RoleEditor {
		return fmt.Errorf("%w: %s cannot write %s", ErrDenied, p, table)
	}
	return nil
}

// SetColumnPolicy installs or replaces the policy for one column.
func (a *Authority) SetColumnPolicy(setter Principal, table string, cp ColumnPolicy) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	tp := a.policy(table)
	if !a.admins[setter] && tp.ACL[setter] < RoleOwner {
		return fmt.Errorf("%w: %s cannot set policies on %s", ErrDenied, setter, table)
	}
	for i, existing := range tp.ColumnPolices {
		if existing.Column == cp.Column {
			tp.ColumnPolices[i] = cp
			return nil
		}
	}
	tp.ColumnPolices = append(tp.ColumnPolices, cp)
	return nil
}

// AddRowPolicy installs a row access policy.
func (a *Authority) AddRowPolicy(setter Principal, table string, rp RowPolicy) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	tp := a.policy(table)
	if !a.admins[setter] && tp.ACL[setter] < RoleOwner {
		return fmt.Errorf("%w: %s cannot set policies on %s", ErrDenied, setter, table)
	}
	tp.RowPolicies = append(tp.RowPolicies, rp)
	return nil
}

// PolicyFor returns a snapshot of the table's governance state.
func (a *Authority) PolicyFor(table string) TablePolicy {
	a.mu.RLock()
	defer a.mu.RUnlock()
	tp, ok := a.tables[table]
	if !ok {
		return TablePolicy{}
	}
	out := TablePolicy{ACL: make(map[Principal]Role, len(tp.ACL))}
	for k, v := range tp.ACL {
		out.ACL[k] = v
	}
	out.ColumnPolices = append(out.ColumnPolices, tp.ColumnPolices...)
	out.RowPolicies = append(out.RowPolicies, tp.RowPolicies...)
	return out
}

// RegisterConnection stores a connection object (admin-only: creating
// a connection provisions a service account).
func (a *Authority) RegisterConnection(creator Principal, c Connection) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.admins[creator] {
		return fmt.Errorf("%w: %s cannot create connections", ErrDenied, creator)
	}
	a.connections[c.Name] = c
	return nil
}

// Connection resolves a connection by name.
func (a *Authority) Connection(name string) (Connection, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	c, ok := a.connections[name]
	if !ok {
		return Connection{}, fmt.Errorf("%w: %q", ErrNoConnection, name)
	}
	return c, nil
}

// RowFilterFor computes the row-level predicate sets visible to a
// principal: (filters, unrestricted). If unrestricted is true the
// principal sees all rows. If false and filters is empty, the
// principal sees no rows.
func (a *Authority) RowFilterFor(p Principal, table string) (filters [][]colfmt.Predicate, unrestricted bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	tp, ok := a.tables[table]
	if !ok || len(tp.RowPolicies) == 0 {
		return nil, true
	}
	for _, rp := range tp.RowPolicies {
		if rp.Grantees[p] {
			filters = append(filters, rp.Filter)
		}
	}
	return filters, false
}

// ColumnDecision is what a principal may do with one column.
type ColumnDecision struct {
	Column string
	Mask   vector.MaskKind // MaskNone = raw access
	Denied bool            // column-level security: selection fails
}

// ColumnDecisionsFor returns the per-column governance decisions for
// the principal over the requested columns.
func (a *Authority) ColumnDecisionsFor(p Principal, table string, columns []string) []ColumnDecision {
	a.mu.RLock()
	defer a.mu.RUnlock()
	tp := a.tables[table]
	out := make([]ColumnDecision, len(columns))
	for i, col := range columns {
		out[i] = tp.decide(p, col)
	}
	return out
}

// ColumnDecisionFor is ColumnDecisionsFor for one column. It allocates
// nothing, and on a table without a column policy costs the table
// lookup alone.
func (a *Authority) ColumnDecisionFor(p Principal, table, column string) ColumnDecision {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.tables[table].decide(p, column)
}

// decide is the column-policy rule; a nil policy protects nothing.
func (tp *TablePolicy) decide(p Principal, col string) ColumnDecision {
	d := ColumnDecision{Column: col}
	if tp == nil {
		return d
	}
	for _, cp := range tp.ColumnPolices {
		if cp.Column != col || cp.Allowed[p] {
			continue
		}
		if cp.Mask == vector.MaskNone {
			d.Denied = true
		} else {
			d.Mask = cp.Mask
		}
	}
	return d
}

// ApplyGovernance enforces the full fine-grained policy for principal
// over a batch read from table: row policies filter rows, column
// policies mask or deny columns. This single implementation is invoked
// by the Dremel scan path and by the Storage Read API, giving the
// paper's "same implementation for data in object stores or in native
// storage" property (§3.2).
func (a *Authority) ApplyGovernance(p Principal, table string, b *vector.Batch) (*vector.Batch, error) {
	if err := a.CheckRead(p, table); err != nil {
		return nil, err
	}
	if !a.Governs(p, table, b.Schema.Fields, nil) {
		return b, nil
	}

	// Row-level filtering first: a row policy reads raw values, and may
	// filter on a column this principal is denied or sees masked.
	if filters, unrestricted := a.RowFilterFor(p, table); !unrestricted {
		// A row any policy's conjunction selects is kept. No policy for
		// the principal selects no row.
		mask := make([]bool, b.N)
		for _, conj := range filters {
			rows, err := colfmt.EvalPredicates(b, conj)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				mask[r] = true
			}
		}
		var err error
		if b, err = vector.Filter(b, mask); err != nil {
			return nil, err
		}
	}

	// Column-level decisions on what is left. Columns the principal is
	// denied are removed from the result entirely (fail closed);
	// explicitly selecting a denied column is rejected earlier, at
	// session creation or column resolution. Masked columns are replaced.
	names := make([]string, len(b.Schema.Fields))
	for i, f := range b.Schema.Fields {
		names[i] = f.Name
	}
	decisions := a.ColumnDecisionsFor(p, table, names)
	open := true
	for _, d := range decisions {
		if d.Denied || d.Mask != vector.MaskNone {
			open = false
		}
	}
	if open {
		return b, nil
	}
	fields := make([]vector.Field, 0, len(b.Schema.Fields))
	cols := make([]*vector.Column, 0, len(b.Cols))
	for i, d := range decisions {
		if d.Denied {
			continue
		}
		f, c := b.Schema.Fields[i], b.Cols[i]
		if d.Mask != vector.MaskNone {
			c = vector.ApplyMask(c, d.Mask)
			f.Type = c.Type
		}
		fields = append(fields, f)
		cols = append(cols, c)
	}
	return &vector.Batch{Schema: vector.Schema{Fields: fields}, Cols: cols, N: b.N}, nil
}

// Governs reports whether ApplyGovernance may change a batch read from
// table by p whose columns are the fields that read admits (read nil:
// every one): a row policy restricts the table, or one of the columns
// is denied or masked to p. ApplyGovernance asks it first and returns a
// batch it does not govern as it is, so a reader that finds Governs
// false for its columns may hand its batches on without calling
// ApplyGovernance, once CheckRead has admitted p.
func (a *Authority) Governs(p Principal, table string, fields []vector.Field, read func(i int) bool) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	tp := a.tables[table]
	if tp == nil {
		return false
	}
	if len(tp.RowPolicies) > 0 {
		return true
	}
	for i, f := range fields {
		if read != nil && !read(i) {
			continue
		}
		if d := tp.decide(p, f.Name); d.Denied || d.Mask != vector.MaskNone {
			return true
		}
	}
	return false
}

// SessionToken is the per-query token Omni's untrusted proxy validates
// (§5.3.2): it scopes what a data-plane worker may ask the control
// plane for, and is HMAC-signed so a compromised worker cannot forge
// or widen one.
type SessionToken struct {
	QueryID   string
	Principal Principal
	Region    string
	Tables    []string
	Expires   time.Duration // simulated time
	MAC       string
}

func (a *Authority) tokenMAC(t SessionToken) string {
	mac := hmac.New(sha256.New, a.tokenSecret)
	tables := append([]string(nil), t.Tables...)
	sort.Strings(tables)
	fmt.Fprintf(mac, "%s|%s|%s|%s|%d", t.QueryID, t.Principal, t.Region, strings.Join(tables, ","), t.Expires)
	return hex.EncodeToString(mac.Sum(nil))
}

// MintToken issues a signed per-query session token.
func (a *Authority) MintToken(queryID string, p Principal, region string, tables []string, expires time.Duration) SessionToken {
	t := SessionToken{QueryID: queryID, Principal: p, Region: region, Tables: tables, Expires: expires}
	t.MAC = a.tokenMAC(t)
	return t
}

// ValidateToken verifies signature, expiry (against now) and that the
// requested table is within the token's scope.
func (a *Authority) ValidateToken(t SessionToken, now time.Duration, table string) error {
	if !hmac.Equal([]byte(t.MAC), []byte(a.tokenMAC(t))) {
		return fmt.Errorf("%w: bad signature", ErrBadToken)
	}
	if now > t.Expires {
		return fmt.Errorf("%w: expired", ErrBadToken)
	}
	for _, allowed := range t.Tables {
		if allowed == table {
			return nil
		}
	}
	return fmt.Errorf("%w: table %q outside query scope", ErrBadToken, table)
}
