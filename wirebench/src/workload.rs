//! The three analyst workloads and their seeded request streams.
//!
//! Everything a run sends is a pure function of `(workload, seed)`: the
//! tables (generated by `fedex-data` and shipped as inline `register`
//! uploads), the order of the steps, and every request line. The same
//! seed therefore produces a byte-identical stream ([`stream_bytes`]).

use std::fmt::Write as _;

use fedex_data::{bank, products, spotify};
use fedex_frame::{Column, ColumnData, DataFrame};
use fedex_serve::json::{obj, s};

/// Rows of the Spotify table the drill-down analyst explores.
pub const DRILL_ROWS: usize = 30_000;
/// Rows of every table the fresh-tables analyst uploads.
pub const FRESH_ROWS: usize = 20_000;
/// Rows of the bank table of the two-analysts workload.
pub const BANK_ROWS: usize = 12_000;
/// Rows of the products table of the two-analysts workload.
pub const PRODUCT_ROWS: usize = 1_500;
/// Rows of the sales table of the two-analysts workload.
pub const SALES_ROWS: usize = 25_000;
/// A metrics scrape follows every this many explains on two-analysts.
pub const SCRAPE_EVERY: usize = 3;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One analyst, one uploaded Spotify table, a re-run notebook of
    /// filter and group-by steps: the warm read path.
    DrillDown,
    /// One analyst uploading a new table per cycle and explaining two
    /// steps on it: the write path, every explain cold.
    FreshTables,
    /// Two analysts on two connections sharing the server with
    /// multi-table steps (join, union, group-by) and metrics scrapes.
    TwoAnalysts,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 3] = [
        Workload::DrillDown,
        Workload::FreshTables,
        Workload::TwoAnalysts,
    ];

    /// Parse a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DrillDown => "drill-down",
            Workload::FreshTables => "fresh-tables",
            Workload::TwoAnalysts => "two-analysts",
        }
    }

    /// Number of analysts (one connection each).
    pub fn analysts(self) -> usize {
        match self {
            Workload::TwoAnalysts => 2,
            _ => 1,
        }
    }

    /// Rows per table, by table name, for the run record.
    pub fn rows(self) -> Vec<(&'static str, usize)> {
        match self {
            Workload::DrillDown => vec![("songs", DRILL_ROWS)],
            Workload::FreshTables => vec![("fresh", FRESH_ROWS)],
            Workload::TwoAnalysts => vec![
                ("products", PRODUCT_ROWS),
                ("sales", SALES_ROWS),
                ("bank", BANK_ROWS),
            ],
        }
    }
}

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A derived seed: `seed` mixed with a stream label and an index.
pub fn derive_seed(seed: u64, label: u64, index: u64) -> u64 {
    let mut r = Rng::new(seed ^ label.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ index.rotate_left(32));
    r.next_u64()
}

/// Which `fedex-data` generator builds a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// `fedex_data::spotify`.
    Spotify,
    /// `fedex_data::bank`.
    Bank,
    /// `fedex_data::products` (catalog side of the join).
    Products,
    /// `fedex_data::products` sales rows referencing the products table
    /// generated from the same seed with [`PRODUCT_ROWS`] rows.
    Sales,
}

/// A table an analyst uploads: name, generator, size, seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Catalog name the table is registered under.
    pub name: &'static str,
    /// Generator.
    pub dataset: Dataset,
    /// Row count.
    pub rows: usize,
    /// Generator seed.
    pub seed: u64,
    /// Identifies which upload of `name` this is, so expected answers are
    /// keyed by table content (0 for base tables; one per fresh table).
    pub epoch: u64,
}

impl TableSpec {
    /// Generate the table in process. Floats are rounded to four
    /// decimals, as a CSV export would carry them, which keeps uploads
    /// compact.
    pub fn generate(&self) -> DataFrame {
        let df = match self.dataset {
            Dataset::Spotify => spotify::generate(self.rows, self.seed),
            Dataset::Bank => bank::generate(self.rows, self.seed),
            Dataset::Products => products::generate_products(self.rows, self.seed),
            Dataset::Sales => {
                let parent = products::generate_products(PRODUCT_ROWS, self.seed);
                products::generate_sales(&parent, self.rows, self.seed)
            }
        };
        let columns = df
            .columns()
            .iter()
            .map(|c| match c.data() {
                ColumnData::Float(v) => Column::from_opt_floats(
                    c.name(),
                    v.iter()
                        .map(|x| x.map(|x| (x * 1e4).round() / 1e4))
                        .collect(),
                ),
                _ => c.clone(),
            })
            .collect();
        DataFrame::new(columns).expect("same shape as the generated frame")
    }

    /// The inline `register` request line uploading this table.
    pub fn register_line(&self, session: &str) -> String {
        register_line(session, self.name, &self.generate())
    }
}

/// Serialize `df` as an inline `register` request (one NDJSON line).
pub fn register_line(session: &str, table: &str, df: &DataFrame) -> String {
    let mut out = String::with_capacity(df.n_rows() * df.n_cols() * 8 + 256);
    out.push_str("{\"cmd\":\"register\",\"session\":");
    push_str_lit(&mut out, session);
    out.push_str(",\"table\":");
    push_str_lit(&mut out, table);
    out.push_str(",\"columns\":[");
    for (i, c) in df.columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_str_lit(&mut out, c.name());
        let ty = match c.data() {
            ColumnData::Int(_) => "int",
            ColumnData::Float(_) => "float",
            ColumnData::Bool(_) => "bool",
            ColumnData::Str(_) => "str",
        };
        let _ = write!(out, ",\"type\":\"{ty}\",\"values\":[");
        let n = c.len();
        for r in 0..n {
            if r > 0 {
                out.push(',');
            }
            match c.data() {
                ColumnData::Int(v) => push_opt(&mut out, v[r]),
                ColumnData::Float(v) => push_opt(&mut out, v[r]),
                ColumnData::Bool(v) => push_opt(&mut out, v[r]),
                ColumnData::Str(v) => match v.get(r) {
                    Some(x) => push_str_lit(&mut out, x),
                    None => out.push_str("null"),
                },
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Append `Some(x)` as its `Display` form (`f64` prints the shortest
/// text that parses back to the same bits), `None` as `null`.
fn push_opt<T: std::fmt::Display>(out: &mut String, v: Option<T>) {
    match v {
        Some(x) => {
            let _ = write!(out, "{x}");
        }
        None => out.push_str("null"),
    }
}

/// Append a JSON string literal.
fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One request of an analyst's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Upload a table.
    Register(TableSpec),
    /// Explain one SQL step, optionally saving its output.
    Explain {
        /// The step.
        sql: String,
        /// Catalog name to save the output under.
        save_as: Option<&'static str>,
        /// Content epoch of the tables the step reads (see
        /// [`TableSpec::epoch`]).
        epoch: u64,
    },
    /// A JSON `metrics` scrape.
    Metrics,
}

impl Op {
    /// The request line for this op in `session` (register lines are
    /// large; callers that resend one should cache it).
    pub fn line(&self, session: &str) -> String {
        match self {
            Op::Register(t) => t.register_line(session),
            Op::Explain { sql, save_as, .. } => {
                let mut fields = vec![
                    ("cmd", s("explain")),
                    ("session", s(session)),
                    ("sql", s(sql.as_str())),
                ];
                if let Some(name) = save_as {
                    fields.push(("save_as", s(*name)));
                }
                obj(fields).to_string()
            }
            Op::Metrics => obj([("cmd", s("metrics"))]).to_string(),
        }
    }

    /// Short kind name for logs and spans.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Register(_) => "register",
            Op::Explain { .. } => "explain",
            Op::Metrics => "metrics",
        }
    }
}

/// A notebook cell: one step, or a step saving its output followed by a
/// step over the saved result.
type Cell = &'static [(&'static str, Option<&'static str>)];

// Five explains per drill-down cycle and three per fresh table or
// two-analysts cycle: with an odd number of steps per cycle, p50 (and on
// drill-down p90) fall in the middle of one step's latencies instead of
// on the gap between two steps', where a few samples would decide them.
const DRILL_CELLS: &[Cell] = &[
    &[
        ("SELECT * FROM songs WHERE popularity > 65", Some("popular")),
        ("SELECT * FROM popular WHERE year > 2000", None),
    ],
    &[(
        "SELECT mean(popularity), max(popularity) FROM songs GROUP BY decade",
        None,
    )],
    &[
        ("SELECT * FROM songs WHERE tempo > 100", Some("upbeat")),
        (
            "SELECT mean(energy), mean(valence) FROM upbeat GROUP BY genre",
            None,
        ),
    ],
];

const FRESH_CELL: Cell = &[
    ("SELECT * FROM fresh WHERE popularity > 65", None),
    (
        "SELECT mean(popularity), max(popularity) FROM fresh GROUP BY decade",
        None,
    ),
    ("SELECT * FROM fresh WHERE loudness > -12", None),
];

const TWO_CELLS: &[Cell] = &[
    &[(
        "SELECT * FROM products INNER JOIN sales ON products.item = sales.item",
        None,
    )],
    &[(
        "SELECT * FROM [SELECT * FROM bank WHERE Customer_Age < 40] UNION \
         SELECT * FROM [SELECT * FROM bank WHERE Months_Inactive_Count_Last_Year > 2]",
        None,
    )],
    &[(
        "SELECT mean(Credit_Used), mean(Total_Transitions_Amount) FROM bank \
         GROUP BY Marital_Status, Income_Category",
        None,
    )],
];

const LABEL_FRESH: u64 = 1;
const LABEL_ORDER: u64 = 2;
const LABEL_BANK: u64 = 3;

/// Fresh-table epochs at or above this are set-up uploads.
pub const SETUP_EPOCH: u64 = 1 << 40;

fn explain(cell: Cell, epoch: u64) -> Vec<Op> {
    cell.iter()
        .map(|(sql, save_as)| Op::Explain {
            sql: sql.to_string(),
            save_as: *save_as,
            epoch,
        })
        .collect()
}

/// One workload instance: its seed and everything derived from it.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The run seed.
    pub seed: u64,
}

impl Plan {
    /// The plan of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        Plan { workload, seed }
    }

    /// Session name of analyst `a`.
    pub fn session(&self, a: usize) -> String {
        format!("analyst{a}")
    }

    /// Base tables every analyst uploads in set-up.
    pub fn base_tables(&self) -> Vec<TableSpec> {
        let table = |name, dataset, rows, seed| TableSpec {
            name,
            dataset,
            rows,
            seed,
            epoch: 0,
        };
        match self.workload {
            Workload::DrillDown => vec![table("songs", Dataset::Spotify, DRILL_ROWS, self.seed)],
            Workload::FreshTables => Vec::new(),
            Workload::TwoAnalysts => vec![
                table("products", Dataset::Products, PRODUCT_ROWS, self.seed),
                table("sales", Dataset::Sales, SALES_ROWS, self.seed),
                table(
                    "bank",
                    Dataset::Bank,
                    BANK_ROWS,
                    derive_seed(self.seed, LABEL_BANK, 0),
                ),
            ],
        }
    }

    /// The fresh table of `epoch` (fresh-tables only).
    pub fn fresh_table(&self, epoch: u64) -> TableSpec {
        TableSpec {
            name: "fresh",
            dataset: Dataset::Spotify,
            rows: FRESH_ROWS,
            seed: derive_seed(self.seed, LABEL_FRESH, epoch),
            epoch,
        }
    }

    /// One fresh table's upload and its steps.
    fn fresh_cycle(&self, epoch: u64) -> Vec<Op> {
        let mut ops = vec![Op::Register(self.fresh_table(epoch))];
        ops.extend(self.fresh_steps(epoch));
        ops
    }

    /// Set-up ops of an analyst after its base uploads, in set-up round
    /// `round`: one pass over every step, so the caches hold every
    /// artifact the timed phase can reuse (fresh-tables: one table).
    pub fn warmup(&self, round: usize) -> Vec<Op> {
        match self.workload {
            Workload::FreshTables => self.fresh_cycle(SETUP_EPOCH + round as u64),
            _ => self.base_steps(),
        }
    }

    /// The ops of analyst `a`'s `cycle`-th timed cycle. On drill-down
    /// and two-analysts a cycle re-runs the notebook: it reloads one base
    /// table (same content, so caches stay warm) and then runs a seeded
    /// permutation of the workload's cells, so every step recurs once per
    /// cycle. On fresh-tables a cycle is one new table and its steps.
    pub fn cycle(&self, a: usize, cycle: u64) -> Vec<Op> {
        match self.workload {
            Workload::FreshTables => self.fresh_cycle(cycle),
            Workload::DrillDown | Workload::TwoAnalysts => {
                let cells = self.cells();
                let mut order: Vec<usize> = (0..cells.len()).collect();
                let stream = cycle ^ ((a as u64) << 48);
                Rng::new(derive_seed(self.seed, LABEL_ORDER, stream)).shuffle(&mut order);
                let reload = self
                    .base_tables()
                    .into_iter()
                    .find(|t| t.name == self.reloaded_table())
                    .expect("the reloaded table is a base table");
                let mut ops = vec![Op::Register(reload)];
                for (i, op) in order.iter().flat_map(|&i| explain(cells[i], 0)).enumerate() {
                    ops.push(op);
                    if self.workload == Workload::TwoAnalysts && (i + 1) % SCRAPE_EVERY == 0 {
                        ops.push(Op::Metrics);
                    }
                }
                ops
            }
        }
    }

    /// The base table a timed cycle reloads first.
    pub fn reloaded_table(&self) -> &'static str {
        match self.workload {
            Workload::TwoAnalysts => "bank",
            _ => "songs",
        }
    }

    /// Every distinct explain of the workload over base tables, in an
    /// order that runs each saving step before the steps that read its
    /// output (empty for fresh-tables, whose steps are per table).
    pub fn base_steps(&self) -> Vec<Op> {
        self.cells().iter().flat_map(|c| explain(c, 0)).collect()
    }

    /// The notebook cells of a base-table workload (none on fresh-tables).
    fn cells(&self) -> &'static [Cell] {
        match self.workload {
            Workload::DrillDown => DRILL_CELLS,
            Workload::TwoAnalysts => TWO_CELLS,
            Workload::FreshTables => &[],
        }
    }

    /// The steps explained on each fresh table.
    pub fn fresh_steps(&self, epoch: u64) -> Vec<Op> {
        explain(FRESH_CELL, epoch)
    }
}

/// The request stream of a plan as bytes: analyst by analyst, the set-up
/// lines (base uploads and warm-up of round 0) and then `cycles` timed
/// cycles, one NDJSON line each.
pub fn stream_bytes(plan: &Plan, cycles: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for a in 0..plan.workload.analysts() {
        let session = plan.session(a);
        let base = plan.base_tables().into_iter().map(Op::Register);
        let ops = base
            .chain(plan.warmup(0))
            .chain((0..cycles).flat_map(|c| plan.cycle(a, c)));
        for op in ops {
            out.extend_from_slice(op.line(&session).as_bytes());
            out.push(b'\n');
        }
    }
    out
}
