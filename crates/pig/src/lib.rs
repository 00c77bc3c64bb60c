//! A miniature Pig-Latin engine, mirroring how MrMC-MinH is deployed.
//!
//! The paper implements its pipeline not as hand-written Hadoop jobs
//! but as a Pig script with Java UDFs (Algorithm 3). This crate
//! reproduces that layer: enough of Pig Latin to run the paper's
//! script verbatim, lowered onto the [`mrmc_mapreduce`] substrate.
//!
//! Supported subset (everything Algorithm 3 uses):
//!
//! ```text
//! A = LOAD '$INPUT' USING FastaStorage AS (readid:chararray, ...);
//! B = FOREACH A GENERATE FLATTEN(SomeUdf(field, $PARAM)) AS (x:long, y:chararray);
//! I = GROUP F ALL;
//! G = GROUP F BY field;
//! STORE K INTO '$OUTPUT';
//! ```
//!
//! * [`batch`] — the columnar data plane: typed column vectors with
//!   validity bitmaps and offset-based nested bags, the one
//!   representation the executor holds relations in;
//! * [`value`] — Pig's dynamic data model (int, long, double,
//!   chararray, bytearray, tuple, bag) with total ordering so values
//!   can serve as shuffle keys;
//! * [`lexer`] / [`parser`] — tokenizer and recursive-descent parser
//!   with `$PARAM` substitution;
//! * [`udf`] — the `Udf` trait and registry; domain UDFs
//!   (`FastaStorage`, `CalculateMinwiseHash`, …) are registered by the
//!   `mrmc` crate, generic builtins (`TOKENIZE`, `COUNT`) live here;
//! * [`exec`] — the executor: `FOREACH` becomes a map-only job over
//!   column windows, `GROUP` a full shuffle of row indices,
//!   `LOAD`/`STORE` read and write the DFS, boxing values only at
//!   those edges; per-stage task statistics feed the
//!   simulated-cluster scaling model.

pub mod batch;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod udf;
pub mod value;

pub use batch::{BagCol, Bitmap, Column, ColumnBatch, VarBytes, VarBytesBuilder};
pub use exec::{PigRunner, RunReport};
pub use parser::{parse_script, ParseError, Script, Statement};
pub use udf::{BatchArg, BatchOut, Udf, UdfRegistry};
pub use value::Value;
