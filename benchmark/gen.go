package main

// Generated inputs. Every table is a pure function of (seed, row): the
// generator computes each cell from the row function below and, while
// it does so, accumulates the sums and checksums the workloads later
// compare the program's answers against. Nothing in this file calls
// the program under test.

import (
	"fmt"
	"math"
	"sort"

	"biglake/internal/vector"
)

// sizes fixes the world. fullSizes is the measured world of the README;
// the smoke test shrinks rows per file and leaves the shapes alone.
type sizes struct {
	OrdersFiles, OrdersRowsPerFile int
	FactFiles, FactRowsPerFile     int
	DimRows                        int
	WideFiles, WideRowsPerFile     int
	RangeSpan                      int // ids covered by a point_hot range op
	InsertRows                     int // rows per ingest_mix INSERT
	TxnRows                        int // rows per in-transaction INSERT
	OptimizeEvery                  int // ingest_mix ops between Optimize passes
}

func fullSizes() sizes {
	return sizes{
		OrdersFiles: 64, OrdersRowsPerFile: 8192,
		FactFiles: 8, FactRowsPerFile: 25000, DimRows: 1024,
		WideFiles: 32, WideRowsPerFile: 32768,
		RangeSpan: 1000, InsertRows: 64, TxnRows: 8,
		OptimizeEvery: 500,
	}
}

// mix is the row function's only source of pseudo-randomness: a
// splitmix64 finalizer over (seed, stream, index). Streams keep the
// columns of one row independent.
func mix(seed, stream, i uint64) uint64 {
	x := seed ^ (stream+1)*0x9E3779B97F4A7C15 ^ (i+1)*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rowSum is the order-independent checksum of a result set: every row
// is hashed with FNV-1a over a canonical cell encoding, and row hashes
// are added modulo 2^64. Ordered results mix the row's position in.
type rowSum struct {
	rows int64
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type rowHash uint64

func newRowHash() rowHash { return fnvOffset }

func (h rowHash) u64(v uint64) rowHash {
	for i := 0; i < 8; i++ {
		h = (h ^ rowHash(v&0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

func (h rowHash) i64(v int64) rowHash   { return h.u64(uint64(v)) }
func (h rowHash) f64(v float64) rowHash { return h.u64(math.Float64bits(v)) }

func (h rowHash) str(s string) rowHash {
	for i := 0; i < len(s); i++ {
		h = (h ^ rowHash(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

func (h rowHash) null() rowHash { return (h ^ 0xfe) * fnvPrime }

func (s *rowSum) add(h rowHash) {
	s.rows++
	s.sum += uint64(h)
}

// sumBatch folds a result batch into a rowSum with the same cell
// encoding the generator uses. ordered mixes base+row index into each
// row hash so a permuted result does not pass.
func sumBatch(s *rowSum, b *vector.Batch, ordered bool, base int64) {
	for r := 0; r < b.N; r++ {
		h := newRowHash()
		if ordered {
			h = h.i64(base + int64(r))
		}
		for _, c := range b.Cols {
			v := c.Value(r)
			switch v.Type {
			case vector.Int64, vector.Timestamp:
				h = h.i64(v.I)
			case vector.Float64:
				h = h.f64(v.F)
			case vector.String, vector.Bytes:
				h = h.str(v.S)
			case vector.Bool:
				if v.B {
					h = h.i64(1)
				} else {
					h = h.i64(0)
				}
			default:
				h = h.null()
			}
		}
		s.add(h)
	}
}

// ---- bench.orders: clustered on id, fits the scan cache ----

var ordersSchema = vector.NewSchema(
	vector.Field{Name: "id", Type: vector.Int64},
	vector.Field{Name: "amount", Type: vector.Int64},
	vector.Field{Name: "price", Type: vector.Float64},
	vector.Field{Name: "status", Type: vector.String},
)

var orderStatuses = []string{"new", "paid", "packed", "shipped", "delivered", "returned", "refunded", "void"}

func orderAmount(seed uint64, id int64) int64 { return int64(mix(seed, 1, uint64(id)) % 1000) }

// orderPrice8 is price in eighths: prices are exact binary fractions,
// so a float SUM is exact in any summation order.
func orderPrice8(seed uint64, id int64) int64 { return int64(mix(seed, 2, uint64(id)) % 7976) }

type ordersData struct {
	rows int64
	// prefix sums over id, for the range ops.
	amountPrefix []int64
	price8Prefix []int64
}

func genOrders(seed uint64, sz sizes) (*ordersData, []*vector.Batch) {
	var files []*vector.Batch
	n := sz.OrdersFiles * sz.OrdersRowsPerFile
	d := &ordersData{rows: int64(n), amountPrefix: make([]int64, n+1), price8Prefix: make([]int64, n+1)}
	for f := 0; f < sz.OrdersFiles; f++ {
		ids := make([]int64, sz.OrdersRowsPerFile)
		amounts := make([]int64, sz.OrdersRowsPerFile)
		prices := make([]float64, sz.OrdersRowsPerFile)
		status := make([]string, sz.OrdersRowsPerFile)
		for r := range ids {
			id := int64(f*sz.OrdersRowsPerFile + r)
			a, p8 := orderAmount(seed, id), orderPrice8(seed, id)
			ids[r], amounts[r], prices[r] = id, a, float64(p8)/8
			status[r] = orderStatuses[mix(seed, 3, uint64(id))%uint64(len(orderStatuses))]
			d.amountPrefix[id+1] = d.amountPrefix[id] + a
			d.price8Prefix[id+1] = d.price8Prefix[id] + p8
		}
		files = append(files, vector.MustBatch(ordersSchema, []*vector.Column{
			vector.NewInt64Column(ids), vector.NewInt64Column(amounts),
			vector.NewFloat64Column(prices), vector.NewStringColumn(status),
		}))
	}
	return d, files
}

// ---- bench.fact / bench.dim: the E15/E20 star schema ----

var (
	factSchema = vector.NewSchema(
		vector.Field{Name: "k", Type: vector.Int64},
		vector.Field{Name: "amount", Type: vector.Int64},
		vector.Field{Name: "price", Type: vector.Float64},
	)
	dimSchema = vector.NewSchema(
		vector.Field{Name: "k", Type: vector.Int64},
		vector.Field{Name: "grp", Type: vector.String},
	)
	dimGroups = []string{"auto", "books", "games", "garden", "home", "music", "sports", "toys"}
)

// olapThresholds are the `amount >= ?` literals the olap_hot ops draw
// from; expected answers are accumulated once per threshold.
var olapThresholds = []int64{0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700, 750}

const topK = 100

type starData struct {
	// expected[q][t] is the checksum of query shape q at threshold t.
	join, group, top []rowSum
}

// genStar keeps E15's amount/price formulas (row%1000, row%997/8): the
// moduli are coprime, so (price, amount) is unique per row and the
// top-K ORDER BY below is total. The join key is seeded.
func genStar(seed uint64, sz sizes) (d *starData, fact []*vector.Batch, dim *vector.Batch) {
	n := sz.FactFiles * sz.FactRowsPerFile
	d = &starData{}
	nt, ng := len(olapThresholds), len(dimGroups)
	// Per threshold: per group and per key (count, amount sum, price8 sum).
	type acc struct{ n, amt, p8 int64 }
	byGroup := make([][]acc, nt)
	byKey := make([][]acc, nt)
	for t := range byGroup {
		byGroup[t] = make([]acc, ng)
		byKey[t] = make([]acc, sz.DimRows)
	}
	keys := make([]int64, n)
	for f := 0; f < sz.FactFiles; f++ {
		ks := make([]int64, sz.FactRowsPerFile)
		amounts := make([]int64, sz.FactRowsPerFile)
		prices := make([]float64, sz.FactRowsPerFile)
		for r := range ks {
			row := f*sz.FactRowsPerFile + r
			k := int64(mix(seed, 10, uint64(row)) % uint64(sz.DimRows))
			a, p8 := int64(row%1000), int64(row%997)
			ks[r], amounts[r], prices[r] = k, a, float64(p8)/8
			keys[row] = k
			for t, th := range olapThresholds {
				if a < th {
					break
				}
				g := &byGroup[t][int(k)%ng]
				g.n, g.amt, g.p8 = g.n+1, g.amt+a, g.p8+p8
				kk := &byKey[t][k]
				kk.n, kk.amt = kk.n+1, kk.amt+a
			}
		}
		fact = append(fact, vector.MustBatch(factSchema, []*vector.Column{
			vector.NewInt64Column(ks), vector.NewInt64Column(amounts), vector.NewFloat64Column(prices),
		}))
	}
	dk := make([]int64, sz.DimRows)
	dg := make([]string, sz.DimRows)
	for i := range dk {
		dk[i], dg[i] = int64(i), dimGroups[i%ng]
	}
	dim = vector.MustBatch(dimSchema, []*vector.Column{vector.NewInt64Column(dk), vector.NewStringColumn(dg)})

	// Rows ordered by (price DESC, amount DESC) once; each threshold's
	// top-K is the first K of that order passing the filter.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a%997 != b%997 {
			return a%997 > b%997
		}
		return a%1000 > b%1000
	})
	d.join, d.group, d.top = make([]rowSum, nt), make([]rowSum, nt), make([]rowSum, nt)
	for t, th := range olapThresholds {
		pos := int64(0)
		for g := 0; g < ng; g++ { // dimGroups is sorted: ORDER BY d.grp
			a := byGroup[t][g]
			if a.n == 0 {
				continue
			}
			d.join[t].add(newRowHash().i64(pos).str(dimGroups[g]).i64(a.n).i64(a.amt).f64(float64(a.p8) / 8))
			pos++
		}
		pos = 0
		for k := 0; k < sz.DimRows; k++ {
			a := byKey[t][k]
			if a.n == 0 {
				continue
			}
			d.group[t].add(newRowHash().i64(pos).i64(int64(k)).i64(a.n).i64(a.amt))
			pos++
		}
		pos = 0
		for _, row := range order {
			if int64(row%1000) < th {
				continue
			}
			d.top[t].add(newRowHash().i64(pos).i64(keys[row]).i64(int64(row % 1000)).f64(float64(row%997) / 8))
			if pos++; pos == topK {
				break
			}
		}
	}
	return d, fact, dim
}

// ---- bench.wide: 16 columns, one file per part, 4x the scan cache ----

var wideSchema = vector.NewSchema(
	vector.Field{Name: "part", Type: vector.Int64},
	vector.Field{Name: "id", Type: vector.Int64},
	vector.Field{Name: "c2", Type: vector.Int64},
	vector.Field{Name: "c3", Type: vector.Int64},
	vector.Field{Name: "c4", Type: vector.Int64},
	vector.Field{Name: "c5", Type: vector.Int64},
	vector.Field{Name: "c6", Type: vector.Int64},
	vector.Field{Name: "c7", Type: vector.Int64},
	vector.Field{Name: "c8", Type: vector.Int64},
	vector.Field{Name: "c9", Type: vector.Int64},
	vector.Field{Name: "f10", Type: vector.Float64},
	vector.Field{Name: "f11", Type: vector.Float64},
	vector.Field{Name: "f12", Type: vector.Float64},
	vector.Field{Name: "f13", Type: vector.Float64},
	vector.Field{Name: "s14", Type: vector.String},
	vector.Field{Name: "email", Type: vector.String},
)

const (
	wideC2Mod     = 1000 // c2 is uniform in [0, wideC2Mod)
	wideLimitC2   = 50   // the scan_cold LIMIT op keeps c2 < wideLimitC2
	widePolicyC2  = 900  // the readapi_gov row policy keeps c2 < widePolicyC2
	wideEmailPool = 4096
)

var wideTags = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
	"iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi"}

func wideC2(seed uint64, id int64) int64  { return int64(mix(seed, 22, uint64(id)) % wideC2Mod) }
func wideC3(seed uint64, id int64) int64  { return int64(mix(seed, 23, uint64(id)) % 1_000_000) }
func wideF10(seed uint64, id int64) int64 { return int64(mix(seed, 30, uint64(id)) % 80_000) } // eighths
func wideEmail(seed uint64, id int64) int { return int(mix(seed, 35, uint64(id)) % wideEmailPool) }

// maskLastFour is the benchmark's own statement of the LAST_FOUR mask:
// every byte but the last four becomes 'X'.
func maskLastFour(s string) string {
	if len(s) <= 4 {
		return s
	}
	b := []byte(s)
	for i := 0; i < len(b)-4; i++ {
		b[i] = 'X'
	}
	return string(b)
}

type wideData struct {
	emails []string // the pool; cell = emails[wideEmail(seed,id)]
	masked []string
	// Per part: the scan_cold aggregate (COUNT, SUM(c3), SUM(f10)), the
	// scan_cold export checksum over (id, c2, f10, s14), the governed
	// Read API projection checksum over (id, c3, masked email) of the
	// rows the row policy keeps, and that projection's SUM(c3)/COUNT.
	count, sumC3, sumF10x8 []int64
	export                 []rowSum
	governed               []rowSum
	govSumC3               []int64
}

func genWide(seed uint64, sz sizes) (*wideData, []*vector.Batch) {
	var files []*vector.Batch
	d := &wideData{emails: make([]string, wideEmailPool), masked: make([]string, wideEmailPool)}
	for i := range d.emails {
		d.emails[i] = fmt.Sprintf("user%05d@mail%d.example.com", i, i%7)
		d.masked[i] = maskLastFour(d.emails[i])
	}
	rows := sz.WideRowsPerFile
	for p := 0; p < sz.WideFiles; p++ {
		ints := make([][]int64, 10)
		for c := range ints {
			ints[c] = make([]int64, rows)
		}
		floats := make([][]float64, 4)
		for c := range floats {
			floats[c] = make([]float64, rows)
		}
		tags, emails := make([]string, rows), make([]string, rows)
		var cnt, s3, sf, g3 int64
		var export, gov rowSum
		for r := 0; r < rows; r++ {
			id := int64(p*rows + r)
			u := uint64(id)
			c2, c3, f10 := wideC2(seed, id), wideC3(seed, id), wideF10(seed, id)
			ints[0][r], ints[1][r], ints[2][r], ints[3][r] = int64(p), id, c2, c3
			for c := 4; c < 10; c++ {
				ints[c][r] = int64(mix(seed, uint64(20+c), u) >> 16)
			}
			floats[0][r] = float64(f10) / 8
			for c := 1; c < 4; c++ {
				floats[c][r] = float64(mix(seed, uint64(30+c), u)%1_000_000) / 64
			}
			tag := wideTags[mix(seed, 34, u)%uint64(len(wideTags))]
			e := wideEmail(seed, id)
			tags[r], emails[r] = tag, d.emails[e]
			cnt, s3, sf = cnt+1, s3+c3, sf+f10
			export.add(newRowHash().i64(id).i64(c2).f64(float64(f10) / 8).str(tag))
			if c2 < widePolicyC2 {
				gov.add(newRowHash().i64(id).i64(c3).str(d.masked[e]))
				g3 += c3
			}
		}
		cols := make([]*vector.Column, 0, 16)
		for _, c := range ints {
			cols = append(cols, vector.NewInt64Column(c))
		}
		for _, c := range floats {
			cols = append(cols, vector.NewFloat64Column(c))
		}
		cols = append(cols, vector.NewStringColumn(tags), vector.NewStringColumn(emails))
		files = append(files, vector.MustBatch(wideSchema, cols))
		d.count, d.sumC3, d.sumF10x8 = append(d.count, cnt), append(d.sumC3, s3), append(d.sumF10x8, sf)
		d.export, d.governed, d.govSumC3 = append(d.export, export), append(d.governed, gov), append(d.govSumC3, g3)
	}
	return d, files
}

// ---- bench.events / bench.audit: managed tables, empty at start ----

var (
	eventsSchema = vector.NewSchema(
		vector.Field{Name: "id", Type: vector.Int64},
		vector.Field{Name: "kind", Type: vector.Int64},
		vector.Field{Name: "amount", Type: vector.Int64},
		vector.Field{Name: "note", Type: vector.String},
	)
	auditSchema = vector.NewSchema(
		vector.Field{Name: "txn", Type: vector.Int64},
		vector.Field{Name: "first_id", Type: vector.Int64},
		vector.Field{Name: "rows", Type: vector.Int64},
	)
)

func eventKind(seed uint64, id int64) int64   { return int64(mix(seed, 40, uint64(id)) % 8) }
func eventAmount(seed uint64, id int64) int64 { return int64(mix(seed, 41, uint64(id)) % 1000) }
func eventNote(seed uint64, id int64) string  { return wideTags[mix(seed, 42, uint64(id))%16] }
