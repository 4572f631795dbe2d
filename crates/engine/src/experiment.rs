//! Declarative experiment files: sweeps as **data**, not flag plumbing.
//!
//! An experiment file is a small TOML-subset document (hand-rolled parser,
//! no dependencies — the build environment is offline) that names
//! everything a sweep needs: the algorithms, Hamiltonians, shapes, the
//! sweep axes (n, λ, crash scenarios, repetitions), the base seed, the
//! checkpoint policy and the output sinks. [`ExperimentSpec::parse`] turns
//! the text into a value whose grids are [`GridSpec`]s — the type
//! `sops-cli sweep` builds from its flags — [`ExperimentSpec::jobs`]
//! expands them into one job list, and
//! [`ExperimentSpec::to_toml`] serializes the canonical form back out —
//! `parse(to_toml(spec)) == spec` for every spec.
//!
//! The complete format reference — grammar, every key with its type and
//! default, sweep-axis semantics, the determinism guarantees and the error
//! catalog — lives in `docs/EXPERIMENTS.md`; annotated runnable examples
//! are checked in under `examples/experiments/`. `sops-cli run <file.toml>`
//! executes a file (with `--override key=value` for ad-hoc tweaks and
//! `--print-grid` to dump the resolved job list).
//!
//! Because a parsed experiment becomes an ordinary [`JobSpec`] list, every
//! engine guarantee applies unchanged: results are byte-identical at any
//! thread count, and a file and the equivalent CLI flags produce
//! byte-identical sweeps (pinned by
//! `crates/engine/tests/experiment_differential.rs`).
//!
//! # Example
//!
//! ```
//! use sops_engine::experiment::ExperimentSpec;
//!
//! let spec = ExperimentSpec::parse(
//!     r#"
//! ## A 2x2 (n, lambda) look at compression from a line.
//! name = "quick-look"
//! seed = 7
//! ns = [20, 40]
//! lambdas = [2, 4]
//! steps = 10000
//! samples = 10
//! "#,
//! )
//! .unwrap();
//! let jobs = spec.jobs();
//! assert_eq!(jobs.len(), 4);
//! assert_eq!((jobs[3].n, jobs[3].lambda), (40, 4.0));
//! assert_eq!(spec, ExperimentSpec::parse(&spec.to_toml()).unwrap());
//! ```

use core::fmt;
use core::str::FromStr;
use std::path::PathBuf;

use sops::core::hamiltonian::HamiltonianSpec;

use crate::grid::{assign_ids_and_seeds, Algorithm, CrashSpec, GridSpec, JobSpec, Shape};

/// Every key allowed in a grid section (or at the top level, where the
/// values act as defaults for all grids).
const GRID_KEYS: [&str; 11] = [
    "algorithms",
    "shapes",
    "ns",
    "lambdas",
    "hamiltonians",
    "crashes",
    "reps",
    "burnin",
    "steps",
    "samples",
    "until_alpha",
];

/// Keys allowed only at the top level, before any section header.
const TOP_ONLY_KEYS: [&str; 3] = ["name", "seed", "shards"];

/// Keys of the `[checkpoint]` section.
const CHECKPOINT_KEYS: [&str; 2] = ["dir", "every"];

/// Keys of the `[output]` section.
const OUTPUT_KEYS: [&str; 1] = ["name"];

/// A parse or validation error, locating the offending **line** and **key**
/// whenever they are known.
///
/// Rendered as `line 4: key `lambdas`: expected a number or an array of
/// numbers`; errors raised while applying an `--override` (which has no
/// source line) render as `--override lambdas: ...` instead. The complete
/// message catalog is documented in `docs/EXPERIMENTS.md`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line, or `None` for errors from `--override` values.
    pub line: Option<usize>,
    /// The key being parsed, when one is in scope.
    pub key: Option<String>,
    message: String,
}

impl ParseError {
    fn new(line: Option<usize>, key: Option<&str>, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            key: key.map(str::to_string),
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, &self.key) {
            (Some(l), Some(k)) => write!(f, "line {l}: key `{k}`: {}", self.message),
            (Some(l), None) => write!(f, "line {l}: {}", self.message),
            (None, Some(k)) => write!(f, "--override {k}: {}", self.message),
            (None, None) => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// One parsed TOML-subset value.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Int(i128),
    Float(f64),
    Bool(bool),
    Str(String),
    Array(Vec<Value>),
}

impl Value {
    /// What a value *is*, for "expected X, got Y" messages.
    fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Bool(_) => "a boolean",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
        }
    }
}

/// Strips a `#` comment, ignoring `#` characters inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one value and returns the unconsumed remainder of the input.
fn parse_value_inner(s: &str) -> Result<(Value, &str), String> {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix('[') {
        let mut items = Vec::new();
        let mut rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(']') {
            return Ok((Value::Array(items), after));
        }
        loop {
            let (item, after_item) = parse_value_inner(rest)?;
            items.push(item);
            let after_item = after_item.trim_start();
            if let Some(after) = after_item.strip_prefix(',') {
                rest = after.trim_start();
                // Tolerate a trailing comma before the closing bracket.
                if let Some(after) = rest.strip_prefix(']') {
                    return Ok((Value::Array(items), after));
                }
                continue;
            }
            if let Some(after) = after_item.strip_prefix(']') {
                return Ok((Value::Array(items), after));
            }
            return Err("expected `,` or `]` in array (arrays must close on the same line)".into());
        }
    }
    if let Some(rest) = s.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Value::Str(out), &rest[i + 1..])),
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, other)) => {
                        return Err(format!(
                            "unsupported string escape `\\{other}` (only \\\" \\\\ \\n \\t)"
                        ))
                    }
                    None => break,
                },
                c => out.push(c),
            }
        }
        return Err("unterminated string".into());
    }
    let end = s
        .find(|c: char| c == ',' || c == ']' || c.is_whitespace())
        .unwrap_or(s.len());
    let (token, rest) = s.split_at(end);
    if token.is_empty() {
        return Err(
            "expected a value: a number, true/false, a \"quoted string\" or an [array]".into(),
        );
    }
    let value = match token {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => {
            if let Ok(i) = token.parse::<i128>() {
                Value::Int(i)
            } else if let Ok(f) = token.parse::<f64>() {
                Value::Float(f)
            } else {
                return Err(format!(
                    "cannot parse `{token}` as a value (numbers and true/false may be bare; \
                     strings need double quotes)"
                ));
            }
        }
    };
    Ok((value, rest))
}

/// Parses a complete right-hand side; trailing garbage is an error.
fn parse_value(s: &str) -> Result<Value, String> {
    let (value, rest) = parse_value_inner(s)?;
    let rest = rest.trim();
    if !rest.is_empty() {
        return Err(format!(
            "unexpected trailing characters `{rest}` after value"
        ));
    }
    Ok(value)
}

/// One `(key, value, source line)` entry list; a section of the document.
#[derive(Clone, Debug, Default)]
struct Section {
    entries: Vec<(String, Value, Option<usize>)>,
}

impl Section {
    fn get(&self, key: &str) -> Option<&(String, Value, Option<usize>)> {
        self.entries.iter().find(|(k, _, _)| k == key)
    }

    /// Inserts or replaces a key (replacement keeps the new provenance).
    fn set(&mut self, key: &str, value: Value, line: Option<usize>) {
        if let Some(entry) = self.entries.iter_mut().find(|(k, _, _)| k == key) {
            *entry = (key.to_string(), value, line);
        } else {
            self.entries.push((key.to_string(), value, line));
        }
    }

    fn remove(&mut self, key: &str) {
        self.entries.retain(|(k, _, _)| k != key);
    }
}

/// The raw parsed document, before interpretation: overrides are applied at
/// this level so they flow through exactly the same typed interpretation
/// (and produce the same error messages) as file text.
#[derive(Clone, Debug, Default)]
struct Doc {
    top: Section,
    grids: Vec<Section>,
    /// The `[checkpoint]` section and its header line (for missing-key
    /// errors, which have no entry of their own to point at).
    checkpoint: Option<(Section, Option<usize>)>,
    output: Option<(Section, Option<usize>)>,
}

/// Which section subsequent `key = value` lines belong to.
enum Target {
    Top,
    Grid(usize),
    Checkpoint,
    Output,
}

fn parse_doc(text: &str) -> Result<Doc, ParseError> {
    let mut doc = Doc::default();
    let mut target = Target::Top;
    let mut single_grid = false;
    let mut array_grid = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = Some(idx + 1);
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let (name, is_array) = if let Some(inner) =
                line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]"))
            {
                (inner.trim(), true)
            } else if let Some(inner) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                (inner.trim(), false)
            } else {
                return Err(ParseError::new(
                    line_no,
                    None,
                    "malformed section header (expected `[checkpoint]`, `[output]`, `[grid]` \
                     or `[[grid]]`)",
                ));
            };
            match (name, is_array) {
                ("grid", true) => {
                    if single_grid {
                        return Err(ParseError::new(
                            line_no,
                            None,
                            "cannot mix `[grid]` and `[[grid]]` (use repeated `[[grid]]` \
                             tables for several grids)",
                        ));
                    }
                    array_grid = true;
                    doc.grids.push(Section::default());
                    target = Target::Grid(doc.grids.len() - 1);
                }
                ("grid", false) => {
                    if array_grid {
                        return Err(ParseError::new(
                            line_no,
                            None,
                            "cannot mix `[grid]` and `[[grid]]` (use repeated `[[grid]]` \
                             tables for several grids)",
                        ));
                    }
                    if single_grid {
                        return Err(ParseError::new(
                            line_no,
                            None,
                            "duplicate `[grid]` section (use `[[grid]]` tables for several \
                             grids)",
                        ));
                    }
                    single_grid = true;
                    doc.grids.push(Section::default());
                    target = Target::Grid(0);
                }
                ("checkpoint", false) => {
                    if doc.checkpoint.is_some() {
                        return Err(ParseError::new(
                            line_no,
                            None,
                            "duplicate `[checkpoint]` section",
                        ));
                    }
                    doc.checkpoint = Some((Section::default(), line_no));
                    target = Target::Checkpoint;
                }
                ("output", false) => {
                    if doc.output.is_some() {
                        return Err(ParseError::new(
                            line_no,
                            None,
                            "duplicate `[output]` section",
                        ));
                    }
                    doc.output = Some((Section::default(), line_no));
                    target = Target::Output;
                }
                (other, _) => {
                    return Err(ParseError::new(
                        line_no,
                        None,
                        format!(
                            "unknown section `[{other}]` (expected [checkpoint], [output], \
                             [grid] or [[grid]])"
                        ),
                    ));
                }
            }
            continue;
        }
        let Some((key, value_text)) = line.split_once('=') else {
            return Err(ParseError::new(
                line_no,
                None,
                "expected `key = value`, a `[section]` header, a `# comment` or a blank line",
            ));
        };
        let key = key.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(ParseError::new(
                line_no,
                None,
                format!("malformed key `{key}` (keys are bare [A-Za-z0-9_-]+ names)"),
            ));
        }
        let value =
            parse_value(value_text).map_err(|msg| ParseError::new(line_no, Some(key), msg))?;
        let section = match target {
            Target::Top => &mut doc.top,
            Target::Grid(i) => &mut doc.grids[i],
            Target::Checkpoint => &mut doc.checkpoint.as_mut().expect("targeted").0,
            Target::Output => &mut doc.output.as_mut().expect("targeted").0,
        };
        if section.get(key).is_some() {
            return Err(ParseError::new(line_no, Some(key), "duplicate key"));
        }
        section.set(key, value, line_no);
    }
    Ok(doc)
}

/// Applies one `--override key=value` to the parsed document.
///
/// Bare grid keys (`steps=5000`) become the new top-level default **and**
/// clear the key from every `[[grid]]` section, so one override reaches the
/// whole sweep; `checkpoint.every=100` and `output.name=x` target their
/// sections (created on demand). `name=` and `seed=` replace the top-level
/// values.
fn apply_override(doc: &mut Doc, raw: &str) -> Result<(), ParseError> {
    let Some((key, value_text)) = raw.split_once('=') else {
        return Err(ParseError::new(
            None,
            Some(raw),
            "expected `--override key=value`",
        ));
    };
    let (key, value_text) = (key.trim(), value_text.trim());
    // Quoted strings and arrays must parse; anything else falls back to a
    // bare string, so `--override hamiltonians=alignment:3` needs no shell
    // quoting gymnastics.
    let value = if value_text.starts_with('[') || value_text.starts_with('"') {
        parse_value(value_text).map_err(|msg| ParseError::new(None, Some(key), msg))?
    } else {
        parse_value(value_text).unwrap_or_else(|_| Value::Str(value_text.to_string()))
    };
    match key.split_once('.') {
        Some(("checkpoint", sub)) => {
            if !CHECKPOINT_KEYS.contains(&sub) {
                return Err(ParseError::new(
                    None,
                    Some(key),
                    format!(
                        "unknown key (expected one of: {})",
                        CHECKPOINT_KEYS.join(", ")
                    ),
                ));
            }
            doc.checkpoint
                .get_or_insert_with(|| (Section::default(), None))
                .0
                .set(sub, value, None);
        }
        Some(("output", sub)) => {
            if !OUTPUT_KEYS.contains(&sub) {
                return Err(ParseError::new(
                    None,
                    Some(key),
                    format!("unknown key (expected one of: {})", OUTPUT_KEYS.join(", ")),
                ));
            }
            doc.output
                .get_or_insert_with(|| (Section::default(), None))
                .0
                .set(sub, value, None);
        }
        Some((section, _)) => {
            return Err(ParseError::new(
                None,
                Some(key),
                format!("unknown section `{section}` (expected checkpoint or output)"),
            ));
        }
        None if TOP_ONLY_KEYS.contains(&key) => doc.top.set(key, value, None),
        None if GRID_KEYS.contains(&key) => {
            for grid in &mut doc.grids {
                grid.remove(key);
            }
            doc.top.set(key, value, None);
        }
        None => {
            return Err(ParseError::new(
                None,
                Some(key),
                format!(
                    "unknown key (expected one of: {}, {}, checkpoint.*, output.*)",
                    TOP_ONLY_KEYS.join(", "),
                    GRID_KEYS.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Typed interpretation: Doc -> ExperimentSpec
// ---------------------------------------------------------------------------

/// Error-construction context while interpreting one entry.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    key: &'a str,
    line: Option<usize>,
}

impl Ctx<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line, Some(self.key), message)
    }
}

/// The items of an axis value: an array's elements, or the scalar itself as
/// a one-element axis (documented sugar: `ns = 100` ≡ `ns = [100]`).
fn axis_items<'v>(value: &'v Value, ctx: Ctx<'_>) -> Result<Vec<&'v Value>, ParseError> {
    let items: Vec<&Value> = match value {
        Value::Array(items) => items.iter().collect(),
        scalar => vec![scalar],
    };
    if items.is_empty() {
        return Err(ctx.err("axis must not be empty"));
    }
    Ok(items)
}

fn as_u64(value: &Value, ctx: Ctx<'_>) -> Result<u64, ParseError> {
    match value {
        Value::Int(i) if (0..=i128::from(u64::MAX)).contains(i) => Ok(*i as u64),
        Value::Int(_) => Err(ctx.err("integer is out of range (expected 0..=2^64-1)")),
        other => Err(ctx.err(format!(
            "expected a non-negative integer, got {}",
            other.kind()
        ))),
    }
}

fn as_f64(value: &Value, ctx: Ctx<'_>) -> Result<f64, ParseError> {
    let v = match value {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => return Err(ctx.err(format!("expected a number, got {}", other.kind()))),
    };
    if !v.is_finite() {
        return Err(ctx.err("number must be finite"));
    }
    Ok(v)
}

fn as_str<'v>(value: &'v Value, ctx: Ctx<'_>) -> Result<&'v str, ParseError> {
    match value {
        Value::Str(s) => Ok(s),
        other => Err(ctx.err(format!("expected a \"string\", got {}", other.kind()))),
    }
}

/// Parses a string axis item through `FromStr`, passing the item parser's
/// own message (which names the valid spellings) through to the user.
fn parse_item<T: FromStr<Err = String>>(value: &Value, ctx: Ctx<'_>) -> Result<T, ParseError> {
    as_str(value, ctx)?
        .parse()
        .map_err(|msg: String| ctx.err(msg))
}

/// Checks a section for keys outside its allowed set.
fn reject_unknown_keys(section: &Section, allowed: &[&str], what: &str) -> Result<(), ParseError> {
    for (key, _, line) in &section.entries {
        if !allowed.contains(&key.as_str()) {
            return Err(ParseError::new(
                *line,
                Some(key),
                format!(
                    "unknown key (expected one of: {} in {what})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

/// Interprets one grid section on top of inherited defaults.
fn grid_from(section: &Section, defaults: &GridSpec) -> Result<GridSpec, ParseError> {
    let mut grid = defaults.clone();
    for (key, value, line) in &section.entries {
        let ctx = Ctx { key, line: *line };
        match key.as_str() {
            "algorithms" => {
                grid.algorithms = axis_items(value, ctx)?
                    .into_iter()
                    .map(|v| parse_item::<Algorithm>(v, ctx))
                    .collect::<Result<_, _>>()?;
            }
            "shapes" => {
                grid.shapes = axis_items(value, ctx)?
                    .into_iter()
                    .map(|v| parse_item::<Shape>(v, ctx))
                    .collect::<Result<_, _>>()?;
            }
            "ns" => {
                grid.ns = axis_items(value, ctx)?
                    .into_iter()
                    .map(|v| as_u64(v, ctx).map(|n| n as usize))
                    .collect::<Result<_, _>>()?;
            }
            "lambdas" => {
                grid.lambdas = axis_items(value, ctx)?
                    .into_iter()
                    .map(|v| as_f64(v, ctx))
                    .collect::<Result<_, _>>()?;
            }
            "hamiltonians" => {
                grid.hamiltonians = Some(
                    axis_items(value, ctx)?
                        .into_iter()
                        .map(|v| {
                            as_str(v, ctx)?
                                .parse::<HamiltonianSpec>()
                                .map_err(|msg| ctx.err(msg))
                        })
                        .collect::<Result<_, _>>()?,
                );
            }
            "crashes" => {
                grid.crashes = axis_items(value, ctx)?
                    .into_iter()
                    .map(|v| match as_str(v, ctx)? {
                        "none" => Ok(None),
                        other => other
                            .parse::<CrashSpec>()
                            .map(Some)
                            .map_err(|msg| ctx.err(msg)),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "reps" => grid.reps = as_u64(value, ctx)?,
            "burnin" => grid.burnin = as_u64(value, ctx)?,
            "steps" => grid.steps = as_u64(value, ctx)?,
            "samples" => grid.samples = as_u64(value, ctx)?,
            "until_alpha" => grid.until_alpha = Some(as_f64(value, ctx)?),
            // The top-level section also carries `name`/`seed`; unknown keys
            // were rejected before interpretation.
            _ => {}
        }
    }
    // The defaults passed validation, so the offending key is this
    // section's own.
    grid.validate().map_err(|err| {
        let line = section.entries.iter().find(|(k, _, _)| k == err.key);
        ParseError::new(line.and_then(|(_, _, l)| *l), Some(err.key), err.message)
    })?;
    Ok(grid)
}

fn interpret(doc: &Doc) -> Result<ExperimentSpec, ParseError> {
    let top_allowed: Vec<&str> = TOP_ONLY_KEYS
        .iter()
        .chain(GRID_KEYS.iter())
        .copied()
        .collect();
    reject_unknown_keys(&doc.top, &top_allowed, "the top level")?;
    for grid in &doc.grids {
        reject_unknown_keys(grid, &GRID_KEYS, "a grid section")?;
    }

    let name = match doc.top.get("name") {
        Some((_, value, line)) => {
            let ctx = Ctx {
                key: "name",
                line: *line,
            };
            let name = as_str(value, ctx)?;
            if name.is_empty() {
                return Err(ctx.err("the experiment name must not be empty"));
            }
            if name.contains('\n') || name.contains('\r') {
                return Err(ctx.err("the experiment name must be a single line"));
            }
            name.to_string()
        }
        None => {
            return Err(ParseError::new(
                Some(1),
                Some("name"),
                "required key is missing (every experiment names itself for provenance)",
            ));
        }
    };
    let seed = match doc.top.get("seed") {
        Some((_, value, line)) => as_u64(
            value,
            Ctx {
                key: "seed",
                line: *line,
            },
        )?,
        None => 0,
    };
    let shards = match doc.top.get("shards") {
        Some((_, value, line)) => {
            let ctx = Ctx {
                key: "shards",
                line: *line,
            };
            match as_u64(value, ctx)? {
                0 => return Err(ctx.err("the shard worker count must be positive")),
                shards => usize::try_from(shards)
                    .map_err(|_| ctx.err("the shard worker count is out of range"))?,
            }
        }
        None => 1,
    };

    let defaults = grid_from(&doc.top, &GridSpec::default())?;
    let grids = if doc.grids.is_empty() {
        vec![defaults]
    } else {
        doc.grids
            .iter()
            .map(|section| grid_from(section, &defaults))
            .collect::<Result<_, _>>()?
    };

    let checkpoint = match &doc.checkpoint {
        None => None,
        Some((section, header_line)) => {
            reject_unknown_keys(section, &CHECKPOINT_KEYS, "the [checkpoint] section")?;
            let dir = match section.get("dir") {
                Some((_, value, line)) => {
                    let ctx = Ctx {
                        key: "dir",
                        line: *line,
                    };
                    let dir = as_str(value, ctx)?;
                    if dir.is_empty() {
                        return Err(ctx.err("the checkpoint directory must not be empty"));
                    }
                    PathBuf::from(dir)
                }
                None => {
                    return Err(ParseError::new(
                        *header_line,
                        Some("dir"),
                        "required key is missing from [checkpoint]",
                    ));
                }
            };
            let every = match section.get("every") {
                Some((_, value, line)) => {
                    let ctx = Ctx {
                        key: "every",
                        line: *line,
                    };
                    match as_u64(value, ctx)? {
                        0 => return Err(ctx.err("the checkpoint interval must be positive")),
                        every => every,
                    }
                }
                None => {
                    return Err(ParseError::new(
                        *header_line,
                        Some("every"),
                        "required key is missing from [checkpoint]",
                    ));
                }
            };
            Some(CheckpointSpec { dir, every })
        }
    };

    let output = match &doc.output {
        None => name.clone(),
        Some((section, header_line)) => {
            reject_unknown_keys(section, &OUTPUT_KEYS, "the [output] section")?;
            match section.get("name") {
                Some((_, value, line)) => {
                    let ctx = Ctx {
                        key: "name",
                        line: *line,
                    };
                    let out = as_str(value, ctx)?;
                    if out.is_empty()
                        || !out
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
                    {
                        return Err(ctx.err(
                            "output names become file names and may only contain \
                             [A-Za-z0-9._-]",
                        ));
                    }
                    out.to_string()
                }
                None => {
                    return Err(ParseError::new(
                        *header_line,
                        Some("name"),
                        "required key is missing from [output]",
                    ));
                }
            }
        }
    };

    Ok(ExperimentSpec {
        name,
        seed,
        shards,
        grids,
        checkpoint,
        output,
    })
}

// ---------------------------------------------------------------------------
// The value types
// ---------------------------------------------------------------------------

/// The `[checkpoint]` section: where and how often a sweep checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint directory (`dir` key).
    pub dir: PathBuf,
    /// Work units between mid-job checkpoints (`every` key).
    pub every: u64,
}

/// A parsed experiment file: named provenance, a base seed, one or more
/// sweep grids, and the optional checkpoint/output policies.
///
/// See the [module docs](self) for the format overview and
/// `docs/EXPERIMENTS.md` for the complete reference.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// The experiment's name — its provenance string, recorded in the JSONL
    /// `sweep_start` event and the checkpoint directory's `meta.txt`.
    pub name: String,
    /// Base seed; job `i` runs with the SplitMix child seed
    /// [`crate::seed::child_seed`]`(seed, i)`.
    pub seed: u64,
    /// Default worker count for intra-run sharding of `local-sharded` jobs
    /// (top-level `shards` key; `--shards` overrides it). An execution
    /// detail like `--threads`: every artifact is byte-identical at any
    /// value. Default 1.
    pub shards: usize,
    /// The sweep's grids, concatenated in file order into one job list.
    pub grids: Vec<GridSpec>,
    /// Optional checkpoint policy (`[checkpoint]` section).
    pub checkpoint: Option<CheckpointSpec>,
    /// Base name of the output sinks (`[output] name`): the CSV table lands
    /// in `results/<output>.csv`, the JSONL event stream in
    /// `results/<output>.jsonl`. Defaults to the experiment name.
    pub output: String,
}

impl ExperimentSpec {
    /// A programmatic spec: one default grid, output named after the
    /// experiment, no checkpointing. The builder path the migrated
    /// experiment binaries use before tweaking individual fields.
    #[must_use]
    pub fn new(name: impl Into<String>, seed: u64) -> ExperimentSpec {
        let name = name.into();
        ExperimentSpec {
            output: name.clone(),
            name,
            seed,
            shards: 1,
            grids: vec![GridSpec::default()],
            checkpoint: None,
        }
    }

    /// Parses an experiment document.
    ///
    /// # Errors
    ///
    /// [`ParseError`] naming the offending line and key; the message catalog
    /// is in `docs/EXPERIMENTS.md`.
    pub fn parse(text: &str) -> Result<ExperimentSpec, ParseError> {
        interpret(&parse_doc(text)?)
    }

    /// Parses an experiment document, then applies `--override key=value`
    /// pairs (each reaches the whole sweep; see `docs/EXPERIMENTS.md`).
    ///
    /// # Errors
    ///
    /// [`ParseError`] from either the document or an override.
    pub fn parse_with_overrides<S: AsRef<str>>(
        text: &str,
        overrides: &[S],
    ) -> Result<ExperimentSpec, ParseError> {
        let mut doc = parse_doc(text)?;
        for raw in overrides {
            apply_override(&mut doc, raw.as_ref())?;
        }
        interpret(&doc)
    }

    /// The resolved job list: every grid's cross product in file order, with
    /// ids and SplitMix child seeds assigned over the concatenation — ready
    /// for [`crate::run_sweep`]. For a single-grid spec this is exactly
    /// `self.grids[0].build(self.seed)`.
    #[must_use]
    pub fn jobs(&self) -> Vec<JobSpec> {
        let mut jobs: Vec<JobSpec> = self
            .grids
            .iter()
            .flat_map(|grid| grid.build(self.seed))
            .collect();
        assign_ids_and_seeds(&mut jobs, self.seed);
        jobs
    }

    /// Serializes the canonical form: `parse(to_toml(spec)) == spec`. Every
    /// grid key is emitted explicitly (defaults included), so the text is a
    /// complete, diffable record of the sweep.
    #[must_use]
    pub fn to_toml(&self) -> String {
        self.to_string()
    }
}

impl FromStr for ExperimentSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<ExperimentSpec, ParseError> {
        ExperimentSpec::parse(s)
    }
}

/// Quotes and escapes a string for the TOML-subset syntax.
fn toml_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn toml_str_list<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let quoted: Vec<String> = items
        .into_iter()
        .map(|item| toml_str(&item.to_string()))
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn toml_num_list<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let rendered: Vec<String> = items.into_iter().map(|item| item.to_string()).collect();
    format!("[{}]", rendered.join(", "))
}

impl fmt::Display for ExperimentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "name = {}", toml_str(&self.name))?;
        writeln!(f, "seed = {}", self.seed)?;
        // Emitted only when non-default, so pre-sharding specs round-trip
        // byte-identically.
        if self.shards != 1 {
            writeln!(f, "shards = {}", self.shards)?;
        }
        if self.output != self.name {
            writeln!(f, "\n[output]")?;
            writeln!(f, "name = {}", toml_str(&self.output))?;
        }
        if let Some(ck) = &self.checkpoint {
            writeln!(f, "\n[checkpoint]")?;
            writeln!(f, "dir = {}", toml_str(&ck.dir.display().to_string()))?;
            writeln!(f, "every = {}", ck.every)?;
        }
        for grid in &self.grids {
            writeln!(f, "\n[[grid]]")?;
            writeln!(f, "algorithms = {}", toml_str_list(&grid.algorithms))?;
            writeln!(f, "shapes = {}", toml_str_list(&grid.shapes))?;
            writeln!(f, "ns = {}", toml_num_list(&grid.ns))?;
            writeln!(f, "lambdas = {}", toml_num_list(&grid.lambdas))?;
            if let Some(hams) = &grid.hamiltonians {
                writeln!(f, "hamiltonians = {}", toml_str_list(hams))?;
            }
            let crashes = grid.crashes.iter().map(|c| match c {
                None => "none".to_string(),
                Some(crash) => crash.to_string(),
            });
            writeln!(f, "crashes = {}", toml_str_list(crashes))?;
            writeln!(f, "reps = {}", grid.reps)?;
            writeln!(f, "burnin = {}", grid.burnin)?;
            writeln!(f, "steps = {}", grid.steps)?;
            writeln!(f, "samples = {}", grid.samples)?;
            if let Some(alpha) = grid.until_alpha {
                writeln!(f, "until_alpha = {alpha}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_file_parses_with_defaults() {
        let spec = ExperimentSpec::parse("name = \"tiny\"").unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.output, "tiny");
        assert_eq!(spec.checkpoint, None);
        assert_eq!(spec.grids, vec![GridSpec::default()]);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].algorithm, Algorithm::CHAIN);
        assert_eq!(jobs[0].steps, 100_000);
    }

    #[test]
    fn full_file_parses_every_key() {
        let spec = ExperimentSpec::parse(
            r#"
# provenance
name = "everything"   # trailing comment
seed = 42

[output]
name = "everything_out"

[checkpoint]
dir = "results/ck"
every = 5000

[[grid]]
algorithms = ["chain", "chain-kmc"]
shapes = ["line", "annulus:4"]
ns = [30, 60]
lambdas = [2, 4.5]
hamiltonians = ["edges", "alignment:3"]
crashes = ["none", "10%@mid"]
reps = 2
burnin = 100
steps = 20000
samples = 10

[[grid]]
algorithms = ["local"]
steps = 400
until_alpha = 2.0
"#,
        )
        .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.output, "everything_out");
        assert_eq!(
            spec.checkpoint,
            Some(CheckpointSpec {
                dir: PathBuf::from("results/ck"),
                every: 5000
            })
        );
        assert_eq!(spec.grids.len(), 2);
        let g = &spec.grids[0];
        assert_eq!(g.algorithms, vec![Algorithm::CHAIN, Algorithm::CHAIN_KMC]);
        assert_eq!(g.shapes, vec![Shape::Line, Shape::Annulus(4)]);
        assert_eq!(g.ns, vec![30, 60]);
        assert_eq!(g.lambdas, vec![2.0, 4.5]);
        assert_eq!(
            g.hamiltonians,
            Some(vec![
                HamiltonianSpec::Edges,
                HamiltonianSpec::Alignment { q: 3 }
            ])
        );
        assert_eq!(
            g.crashes,
            vec![
                None,
                Some(CrashSpec {
                    percent: 10,
                    after_burnin: true
                })
            ]
        );
        assert_eq!((g.reps, g.burnin, g.steps, g.samples), (2, 100, 20000, 10));
        // The second grid inherits nothing it does not set beyond defaults.
        let g2 = &spec.grids[1];
        assert_eq!(g2.algorithms, vec![Algorithm::Local]);
        assert_eq!(g2.steps, 400);
        assert_eq!(g2.until_alpha, Some(2.0));
        assert_eq!(g2.ns, vec![100]);
    }

    #[test]
    fn top_level_keys_are_defaults_for_every_grid() {
        let spec = ExperimentSpec::parse(
            r#"
name = "defaults"
steps = 777
ns = [9]

[[grid]]
lambdas = [2]

[[grid]]
steps = 111
"#,
        )
        .unwrap();
        assert_eq!(spec.grids[0].steps, 777);
        assert_eq!(spec.grids[0].ns, vec![9]);
        assert_eq!(spec.grids[0].lambdas, vec![2.0]);
        assert_eq!(spec.grids[1].steps, 111);
        assert_eq!(spec.grids[1].ns, vec![9]);
    }

    #[test]
    fn scalar_axis_values_are_one_element_axes() {
        let spec = ExperimentSpec::parse(
            "name = \"scalar\"\nns = 25\nlambdas = 3.5\nalgorithms = \"chain-kmc\"",
        )
        .unwrap();
        assert_eq!(spec.grids[0].ns, vec![25]);
        assert_eq!(spec.grids[0].lambdas, vec![3.5]);
        assert_eq!(spec.grids[0].algorithms, vec![Algorithm::CHAIN_KMC]);
    }

    #[test]
    fn single_grid_jobs_equal_the_equivalent_job_grid() {
        let spec = ExperimentSpec::parse(
            r#"
name = "vs-grid"
seed = 9
ns = [12, 24]
lambdas = [2, 4]
algorithms = ["chain", "local"]
steps = 5000
samples = 5
reps = 2
"#,
        )
        .unwrap();
        let by_hand = GridSpec {
            ns: vec![12, 24],
            lambdas: vec![2.0, 4.0],
            algorithms: vec![Algorithm::CHAIN, Algorithm::Local],
            steps: 5000,
            samples: 5,
            reps: 2,
            ..GridSpec::default()
        }
        .build(9);
        assert_eq!(spec.jobs(), by_hand);
    }

    #[test]
    fn multi_grid_jobs_concatenate_with_fresh_ids_and_seeds() {
        let spec = ExperimentSpec::parse(
            r#"
name = "multi"
seed = 4

[[grid]]
algorithms = ["chain"]
steps = 100

[[grid]]
algorithms = ["local"]
steps = 200
"#,
        )
        .unwrap();
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 0);
        assert_eq!(jobs[1].id, 1);
        assert_eq!(jobs[1].algorithm, Algorithm::Local);
        assert_eq!(jobs[1].steps, 200);
        assert_eq!(jobs[1].seed, crate::seed::child_seed(4, 1));
    }

    #[test]
    fn canonical_serialization_round_trips() {
        let text = r#"
name = "rt"
seed = 77

[output]
name = "rt_out"

[checkpoint]
dir = "ck"
every = 10

[[grid]]
ns = [10]
lambdas = [0.5, 6]
hamiltonians = ["alignment:5"]
crashes = ["none", "7%@start"]
until_alpha = 1.25

[[grid]]
algorithms = ["local"]
"#;
        let spec = ExperimentSpec::parse(text).unwrap();
        let again = ExperimentSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
        assert_eq!(spec.to_toml(), again.to_toml());
    }

    #[test]
    fn overrides_reach_every_grid_and_sections() {
        let text = r#"
name = "o"

[[grid]]
steps = 11111
lambdas = [2]

[[grid]]
steps = 22222
"#;
        let spec = ExperimentSpec::parse_with_overrides(
            text,
            &[
                "steps=500",
                "ns=[5, 6]",
                "hamiltonians=alignment:3",
                "checkpoint.dir=ckdir",
                "checkpoint.every=9",
                "output.name=renamed",
                "seed=31",
            ],
        )
        .unwrap();
        assert_eq!(spec.seed, 31);
        assert_eq!(spec.output, "renamed");
        assert_eq!(
            spec.checkpoint,
            Some(CheckpointSpec {
                dir: PathBuf::from("ckdir"),
                every: 9
            })
        );
        for grid in &spec.grids {
            assert_eq!(grid.steps, 500, "bare overrides reach every grid");
            assert_eq!(grid.ns, vec![5, 6]);
            assert_eq!(
                grid.hamiltonians,
                Some(vec![HamiltonianSpec::Alignment { q: 3 }])
            );
        }
        // Keys the override did not touch survive.
        assert_eq!(spec.grids[0].lambdas, vec![2.0]);
    }

    #[test]
    fn override_errors_name_the_key() {
        let text = "name = \"o\"";
        let err = ExperimentSpec::parse_with_overrides(text, &["bogus=1"]).unwrap_err();
        assert!(err.to_string().contains("--override bogus"), "{err}");
        let err = ExperimentSpec::parse_with_overrides(text, &["steps=abc"]).unwrap_err();
        assert!(err.to_string().contains("steps"), "{err}");
        let err = ExperimentSpec::parse_with_overrides(text, &["no-equals"]).unwrap_err();
        assert!(err.to_string().contains("key=value"), "{err}");
        let err = ExperimentSpec::parse_with_overrides(text, &["lambdas=[1,bogus]"]).unwrap_err();
        assert!(err.to_string().contains("lambdas"), "{err}");
    }

    /// Every malformed input is rejected with an error naming the line and
    /// (where one is in scope) the key — the format's error catalog, pinned.
    #[test]
    fn malformed_inputs_name_line_and_key() {
        // (input, required substrings of the rendered error)
        let table: &[(&str, &[&str])] = &[
            ("ns = [1]", &["line 1", "name", "required key is missing"]),
            ("name = 3", &["line 1", "name", "expected a \"string\""]),
            ("name = \"\"", &["line 1", "name", "must not be empty"]),
            (
                "name = \"a\nb\"",
                &["line 1", "name", "unterminated string"],
            ),
            ("name = \"x\"\nnope", &["line 2", "expected `key = value`"]),
            ("name = \"x\"\n??? = 1", &["line 2", "malformed key"]),
            (
                "name = \"x\"\nseed = 1\nseed = 2",
                &["line 3", "seed", "duplicate key"],
            ),
            (
                "name = \"x\"\nwhatever = 1",
                &["line 2", "whatever", "unknown key"],
            ),
            (
                "name = \"x\"\n[party]",
                &["line 2", "unknown section `[party]`"],
            ),
            (
                "name = \"x\"\n[grid\u{5d}extra",
                &["line 2", "malformed section header"],
            ),
            (
                "name = \"x\"\n[grid]\nns = [1]\n[grid]",
                &["line 4", "duplicate `[grid]`"],
            ),
            (
                "name = \"x\"\n[grid]\nns = [1]\n[[grid]]",
                &["line 4", "cannot mix `[grid]` and `[[grid]]`"],
            ),
            (
                "name = \"x\"\n[[grid]]\nns = [1]\n[grid]",
                &["line 4", "cannot mix `[grid]` and `[[grid]]`"],
            ),
            (
                "name = \"x\"\n[checkpoint]\ndir = \"d\"\n[checkpoint]",
                &["line 4", "duplicate `[checkpoint]`"],
            ),
            (
                "name = \"x\"\nns = []",
                &["line 2", "ns", "axis must not be empty"],
            ),
            (
                "name = \"x\"\nns = [0]",
                &["line 2", "ns", "particle counts must be positive"],
            ),
            (
                "name = \"x\"\nns = [1.5]",
                &[
                    "line 2",
                    "ns",
                    "expected a non-negative integer, got a float",
                ],
            ),
            (
                "name = \"x\"\nsteps = -4",
                &["line 2", "steps", "expected 0..=2^64-1"],
            ),
            (
                "name = \"x\"\nlambdas = [0]",
                &["line 2", "lambdas", "lambda must be positive"],
            ),
            (
                "name = \"x\"\nlambdas = [true]",
                &["line 2", "lambdas", "expected a number, got a boolean"],
            ),
            (
                "name = \"x\"\nlambdas = inf",
                &["line 2", "lambdas", "must be finite"],
            ),
            (
                "name = \"x\"\nreps = 0",
                &["line 2", "reps", "at least one repetition"],
            ),
            (
                "name = \"x\"\nuntil_alpha = 0",
                &["line 2", "until_alpha", "must be positive"],
            ),
            (
                "name = \"x\"\nalgorithms = [\"warp\"]",
                &["line 2", "algorithms", "unknown algorithm"],
            ),
            (
                "name = \"x\"\nalgorithms = [\"local+edges\"]",
                &["line 2", "algorithms", "does not take a hamiltonian"],
            ),
            (
                "name = \"x\"\nshapes = [\"cube\"]",
                &["line 2", "shapes", "unknown shape"],
            ),
            (
                "name = \"x\"\nhamiltonians = [\"ising\"]",
                &["line 2", "hamiltonians", "unknown hamiltonian"],
            ),
            (
                "name = \"x\"\ncrashes = [\"5%@never\"]",
                &["line 2", "crashes", "bad crash spec"],
            ),
            (
                "name = \"x\"\ncrashes = [\"200%@mid\"]",
                &["line 2", "crashes", "must be 0..=100"],
            ),
            (
                "name = \"x\"\nsteps = 5 5",
                &["line 2", "steps", "unexpected trailing characters"],
            ),
            (
                "name = \"x\"\nns = [1 2]",
                &["line 2", "ns", "expected `,` or `]`"],
            ),
            (
                "name = \"x\"\nns = oops",
                &["line 2", "ns", "cannot parse `oops`"],
            ),
            (
                "name = \"x\"\nname2 = \"\\q\"",
                &["line 2", "name2", "unsupported string escape"],
            ),
            (
                "name = \"x\"\n[checkpoint]\nevery = 3",
                &["line 2", "dir", "required key is missing"],
            ),
            (
                "name = \"x\"\n[checkpoint]\ndir = \"d\"",
                &["line 2", "every", "required key is missing"],
            ),
            (
                "name = \"x\"\n[checkpoint]\ndir = \"d\"\nevery = 0",
                &["line 4", "every", "must be positive"],
            ),
            (
                "name = \"x\"\n[checkpoint]\ndir = \"d\"\nevery = 1\nns = [2]",
                &["line 5", "ns", "unknown key"],
            ),
            (
                "name = \"x\"\n[output]",
                &["line 2", "name", "required key is missing"],
            ),
            (
                "name = \"x\"\n[output]\nname = \"a/b\"",
                &["line 3", "name", "may only contain"],
            ),
        ];
        for (input, expected) in table {
            let err =
                ExperimentSpec::parse(input).expect_err(&format!("input must fail: {input:?}"));
            let rendered = err.to_string();
            for needle in *expected {
                assert!(
                    rendered.contains(needle),
                    "error for {input:?} must mention {needle:?}, got: {rendered}"
                );
            }
        }
    }

    #[test]
    fn comments_and_strings_interact_correctly() {
        let spec =
            ExperimentSpec::parse("name = \"has # hash\" # real comment\nsteps = 5 # another")
                .unwrap();
        assert_eq!(spec.name, "has # hash");
        assert_eq!(spec.grids[0].steps, 5);
    }

    #[test]
    fn programmatic_specs_serialize_and_round_trip() {
        let mut spec = ExperimentSpec::new("prog", 123);
        spec.grids[0].ns = vec![10, 20];
        spec.grids[0].until_alpha = Some(2.0);
        spec.grids.push(GridSpec {
            algorithms: vec![Algorithm::Local],
            ..GridSpec::default()
        });
        let again = ExperimentSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
        assert_eq!(spec.jobs(), again.jobs());
    }
}
