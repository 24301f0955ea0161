//! The `ostro` command-line planner: place QoS-enhanced Heat templates
//! onto JSON-described data centers from the shell.
//!
//! ```text
//! ostro inspect  --infra infra.json [--state state.json]
//! ostro place    --infra infra.json --template app.json
//!                [--algorithm egc|egbw|eg|bastar|dbastar]
//!                [--deadline-ms N] [--theta-bw X] [--theta-c X]
//!                [--seed N] [--state state.json] [--commit new-state.json]
//! ostro validate --infra infra.json --template app.json
//!                --placement placement.json [--state state.json]
//! ostro churn    --infra infra.json [--algorithm ...] [--arrivals N]
//!                [--lifetime N] [--seed N] [--crashes N]
//!                [--launch-failure-prob X] [--stale-race-prob X]
//! ostro serve    --infra infra.json [--requests N] [--depart-prob X]
//!                [--batch N] [--serial]
//!                [--maintain] [--wal-dir dir]
//! ostro maintain --infra infra.json [--arrivals N] [--decay X] [--seed N]
//!                [--ticks N] [--sweep-budget N] [--fail-stop N] [--gray N]
//!                [--flappy N] [--no-maintenance] [--wal-dir dir]
//! ostro example  infra|template
//! ```
//!
//! `place` prints a JSON document with the node → host decision, the
//! annotated template, and the metrics the paper reports; `--commit`
//! additionally writes the post-placement capacity state so a sequence
//! of invocations models a live cloud.

mod cli_error;
mod commands;

pub use cli_error::CliError;
pub use commands::{run, Command};
