// Package workload provides the synthetic benchmark substrates for
// the paper's evaluations: a TPC-DS-like star schema (store_sales fact
// plus date/item/customer/store dimensions) and a TPC-H-like schema
// (lineitem/orders/customer), with loaders that materialize them as
// BigLake tables on simulated object storage and query sets shaped
// like the power runs of §3.3/§3.4/§5.4. Scale factors are laptop
// sized; the paper's results are relative, and the pruning/stats
// behaviour that produces them is scale-invariant in shape.
package workload

import (
	"fmt"

	"biglake/internal/bigmeta"
	"biglake/internal/catalog"
	"biglake/internal/colfmt"
	"biglake/internal/objstore"
	"biglake/internal/resilience"
	"biglake/internal/security"
	"biglake/internal/sim"
	"biglake/internal/vector"
)

// Env bundles the deployment services a loader needs.
type Env struct {
	Catalog *catalog.Catalog
	Auth    *security.Authority
	Store   *objstore.Store
	Log     *bigmeta.Log
	Clock   *sim.Clock
	// Cred is the delegated connection's service account; it must
	// already have write access to Bucket.
	Cred objstore.Credential
	// Connection is the catalog connection name for created tables.
	Connection string
	Bucket     string
	Cloud      string
	// Dataset receives the created tables.
	Dataset string
	// Admin grants table access after creation.
	Admin security.Principal
}

// Query is one benchmark query.
type Query struct {
	ID   string
	SQL  string
	Kind string // "prunable", "star-join", "scan", "aggregate"
}

// TPCDSConfig scales the star schema.
type TPCDSConfig struct {
	Dates        int // distinct sold-date partitions
	FilesPerDate int
	RowsPerFile  int
	Items        int
	Customers    int
	Stores       int
	Seed         uint64
}

// DefaultTPCDS returns a laptop-scale configuration; scale linearly
// multiplies the fact volume.
func DefaultTPCDS(scale int) TPCDSConfig {
	if scale < 1 {
		scale = 1
	}
	return TPCDSConfig{
		Dates:        10,
		FilesPerDate: 2 * scale,
		RowsPerFile:  500,
		Items:        200,
		Customers:    300,
		Stores:       10,
		Seed:         2024,
	}
}

// StoreSalesSchema is the fact table schema. sold_date is the hive
// partition key (files live under d=<yyyymmdd>/ prefixes).
func StoreSalesSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "sold_date", Type: vector.Int64},
		vector.Field{Name: "item_sk", Type: vector.Int64},
		vector.Field{Name: "customer_sk", Type: vector.Int64},
		vector.Field{Name: "store_sk", Type: vector.Int64},
		vector.Field{Name: "quantity", Type: vector.Int64},
		vector.Field{Name: "sales_price", Type: vector.Float64},
	)
}

// DateDimSchema is the date dimension.
func DateDimSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "d_date_sk", Type: vector.Int64},
		vector.Field{Name: "d_year", Type: vector.Int64},
		vector.Field{Name: "d_moy", Type: vector.Int64},
	)
}

// ItemSchema is the item dimension.
func ItemSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "i_item_sk", Type: vector.Int64},
		vector.Field{Name: "i_category", Type: vector.String},
		vector.Field{Name: "i_brand", Type: vector.String},
	)
}

// CustomerSchema is the customer dimension.
func CustomerSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "c_customer_sk", Type: vector.Int64},
		vector.Field{Name: "c_region", Type: vector.String},
	)
}

// StoreSchema is the store dimension.
func StoreSchema() vector.Schema {
	return vector.NewSchema(
		vector.Field{Name: "s_store_sk", Type: vector.Int64},
		vector.Field{Name: "s_state", Type: vector.String},
	)
}

var (
	categories = []string{"Books", "Electronics", "Home", "Sports", "Music", "Jewelry", "Shoes", "Toys"}
	regions    = []string{"amer", "emea", "apac"}
	states     = []string{"CA", "NY", "TX", "WA", "OR"}
)

// dateSK converts a date ordinal to the yyyymmdd-style surrogate key.
func dateSK(i int) int64 { return 20240100 + int64(i) + 1 }

// LoadTPCDS materializes the star schema: the fact as a
// hive-partitioned BigLake table, the dimensions as native tables
// registered in the Big Metadata log, and access grants for Admin.
func LoadTPCDS(env *Env, cfg TPCDSConfig) error {
	rng := sim.NewRNG(cfg.Seed)
	fact := catalog.Table{
		Dataset: env.Dataset, Name: "store_sales", Type: catalog.BigLake,
		Schema: StoreSalesSchema(), Cloud: env.Cloud, Bucket: env.Bucket,
		Prefix: "tpcds/store_sales/", Connection: env.Connection,
		PartitionColumn: "sold_date", MetadataCaching: true,
	}
	if err := env.Catalog.CreateTable(fact); err != nil {
		return err
	}
	for d := 0; d < cfg.Dates; d++ {
		for f := 0; f < cfg.FilesPerDate; f++ {
			// Within each date, files are range-clustered on item_sk
			// (the common "fact sorted by item" layout), which is what
			// lets per-file column statistics and dynamic partition
			// pruning skip whole files.
			itemLo := f * cfg.Items / cfg.FilesPerDate
			itemHi := (f + 1) * cfg.Items / cfg.FilesPerDate
			if itemHi <= itemLo {
				itemHi = itemLo + 1
			}
			bl := vector.NewBuilder(StoreSalesSchema())
			for r := 0; r < cfg.RowsPerFile; r++ {
				bl.Append(
					vector.IntValue(dateSK(d)),
					vector.IntValue(int64(itemLo+rng.Intn(itemHi-itemLo))),
					vector.IntValue(int64(rng.Intn(cfg.Customers))),
					vector.IntValue(int64(rng.Intn(cfg.Stores))),
					vector.IntValue(int64(1+rng.Intn(10))),
					vector.FloatValue(float64(rng.Intn(10000))/100),
				)
			}
			file, err := colfmt.WriteFile(bl.Build(), colfmt.WriterOptions{})
			if err != nil {
				return err
			}
			key := fmt.Sprintf("tpcds/store_sales/sold_date=%d/part-%03d.blk", dateSK(d), f)
			if _, err := env.Store.Put(env.Cred, env.Bucket, key, file, "application/x-blk"); err != nil {
				return err
			}
		}
	}

	dims := []struct {
		name   string
		schema vector.Schema
		rows   func(bl *vector.Builder)
	}{
		{"date_dim", DateDimSchema(), func(bl *vector.Builder) {
			for d := 0; d < cfg.Dates; d++ {
				bl.Append(vector.IntValue(dateSK(d)), vector.IntValue(2024), vector.IntValue(int64(d%12)+1))
			}
		}},
		{"item", ItemSchema(), func(bl *vector.Builder) {
			// Category and brand are block-assigned over the item key
			// space, so a category filter selects a contiguous
			// item_sk range (the property DPP exploits).
			for i := 0; i < cfg.Items; i++ {
				bl.Append(vector.IntValue(int64(i)),
					vector.StringValue(categories[i*len(categories)/cfg.Items]),
					vector.StringValue(fmt.Sprintf("brand_%02d", i*30/cfg.Items)))
			}
		}},
		{"customer", CustomerSchema(), func(bl *vector.Builder) {
			for i := 0; i < cfg.Customers; i++ {
				bl.Append(vector.IntValue(int64(i)), vector.StringValue(regions[i%len(regions)]))
			}
		}},
		{"store", StoreSchema(), func(bl *vector.Builder) {
			for i := 0; i < cfg.Stores; i++ {
				bl.Append(vector.IntValue(int64(i)), vector.StringValue(states[i%len(states)]))
			}
		}},
	}
	for _, dim := range dims {
		if err := loadNative(env, dim.name, dim.schema, dim.rows); err != nil {
			return err
		}
	}

	for _, name := range []string{"store_sales", "date_dim", "item", "customer", "store"} {
		full := env.Dataset + "." + name
		if err := env.Auth.GrantTable(env.Admin, full, env.Admin, security.RoleOwner); err != nil {
			return err
		}
	}
	return nil
}

// loadNative writes a one-file native table committed through the log.
func loadNative(env *Env, name string, schema vector.Schema, fill func(*vector.Builder)) error {
	bl := vector.NewBuilder(schema)
	fill(bl)
	batch := bl.Build()
	entry, err := bigmeta.PutDataFile(resilience.Counted{}, env.Clock, nil, bigmeta.DataFile{
		Store: env.Store, Cred: env.Cred, Bucket: env.Bucket,
		Key: fmt.Sprintf("native/%s/part-000.blk", name), Batch: batch,
	})
	if err != nil {
		return err
	}
	if err := env.Catalog.CreateTable(catalog.Table{
		Dataset: env.Dataset, Name: name, Type: catalog.Native,
		Schema: schema, Cloud: env.Cloud, Bucket: env.Bucket,
		Prefix: fmt.Sprintf("native/%s/", name),
	}); err != nil {
		return err
	}
	_, err = env.Log.Commit("loader", map[string]bigmeta.TableDelta{
		env.Dataset + "." + name: {Added: []bigmeta.FileEntry{entry}},
	})
	return err
}

// TPCDSQueries returns the power-run query set over dataset ds. The
// mix mirrors Figure 4's spread: date-prunable scans (big cache
// speedups), snowflake joins with selective dimension filters
// (DPP-friendly), and unprunable full scans (small speedups).
func TPCDSQueries(ds string, cfg TPCDSConfig) []Query {
	day := dateSK(cfg.Dates / 2)
	lastDay := dateSK(cfg.Dates - 1)
	return []Query{
		{ID: "q01", Kind: "prunable", SQL: fmt.Sprintf(
			`SELECT COUNT(*) AS cnt, SUM(sales_price) AS revenue FROM %s.store_sales WHERE sold_date = %d`, ds, day)},
		{ID: "q02", Kind: "prunable", SQL: fmt.Sprintf(
			`SELECT store_sk, SUM(quantity) AS qty FROM %s.store_sales WHERE sold_date = %d GROUP BY store_sk ORDER BY qty DESC`, ds, lastDay)},
		{ID: "q03", Kind: "prunable", SQL: fmt.Sprintf(
			`SELECT AVG(sales_price) AS avg_price FROM %s.store_sales WHERE sold_date >= %d AND sold_date <= %d`, ds, day, dateSK(cfg.Dates/2+1))},
		{ID: "q04", Kind: "star-join", SQL: fmt.Sprintf(
			`SELECT i.i_category, SUM(ss.sales_price) AS revenue
			 FROM %s.store_sales AS ss JOIN %s.item AS i ON ss.item_sk = i.i_item_sk
			 WHERE ss.sold_date = %d GROUP BY i.i_category ORDER BY revenue DESC`, ds, ds, day)},
		{ID: "q05", Kind: "star-join", SQL: fmt.Sprintf(
			`SELECT c.c_region, COUNT(*) AS sales
			 FROM %s.store_sales AS ss JOIN %s.customer AS c ON ss.customer_sk = c.c_customer_sk
			 WHERE ss.sold_date >= %d GROUP BY c.c_region`, ds, ds, lastDay)},
		{ID: "q06", Kind: "star-join", SQL: fmt.Sprintf(
			`SELECT s.s_state, SUM(ss.quantity) AS qty
			 FROM %s.store_sales AS ss JOIN %s.store AS s ON ss.store_sk = s.s_store_sk
			 WHERE ss.sold_date = %d AND s.s_state = 'CA' GROUP BY s.s_state`, ds, ds, day)},
		{ID: "q07", Kind: "scan", SQL: fmt.Sprintf(
			`SELECT COUNT(*) AS cnt FROM %s.store_sales WHERE quantity >= 1`, ds)},
		{ID: "q08", Kind: "scan", SQL: fmt.Sprintf(
			`SELECT MAX(sales_price) AS mx, MIN(sales_price) AS mn FROM %s.store_sales`, ds)},
		{ID: "q09", Kind: "aggregate", SQL: fmt.Sprintf(
			`SELECT sold_date, COUNT(*) AS cnt FROM %s.store_sales GROUP BY sold_date ORDER BY sold_date`, ds)},
		{ID: "q10", Kind: "prunable", SQL: fmt.Sprintf(
			`SELECT SUM(quantity) AS qty FROM %s.store_sales WHERE sold_date = %d AND sales_price > 50.0`, ds, dateSK(0))},
		{ID: "q11", Kind: "star-join", SQL: fmt.Sprintf(
			`SELECT d.d_moy, SUM(ss.sales_price) AS revenue
			 FROM %s.store_sales AS ss JOIN %s.date_dim AS d ON ss.sold_date = d.d_date_sk
			 WHERE d.d_moy = 1 GROUP BY d.d_moy`, ds, ds)},
		{ID: "q12", Kind: "prunable", SQL: fmt.Sprintf(
			`SELECT item_sk, SUM(sales_price) AS rev FROM %s.store_sales WHERE sold_date = %d GROUP BY item_sk ORDER BY rev DESC LIMIT 10`, ds, day)},
	}
}
