//! CLI for the dronelint engine.
//!
//! ```text
//! dronelint [--root PATH] [--baseline PATH] [--format human|json]
//!           [--out PATH] [--explain R<N>] [--self-check]
//! ```
//!
//! `--out PATH` writes the JSON report (violations + graph stats) to
//! a file regardless of the stdout format — CI uploads it as an
//! artifact. `--explain R<N>` prints one rule's rationale and example
//! fix and exits. `--self-check` restricts the report to
//! `crates/dronelint/` itself (the lint must hold to its own rules).
//!
//! Exit codes: 0 clean, 1 new violations or stale baseline entries,
//! 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use dronelint::{analyze_workspace, Baseline, GraphStats, Reconciled, RULES};

struct Args {
    root: PathBuf,
    baseline: Option<PathBuf>,
    json: bool,
    out: Option<PathBuf>,
    explain: Option<String>,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    // Default root: the workspace two levels above this crate.
    let mut args = Args {
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        baseline: None,
        json: false,
        out: None,
        explain: None,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a path")?);
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
            }
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("human") => args.json = false,
                other => return Err(format!("--format must be human or json, got {other:?}")),
            },
            "--out" => {
                args.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?));
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule id (e.g. R3)")?);
            }
            "--self-check" => args.self_check = true,
            "--help" | "-h" => {
                return Err(
                    "usage: dronelint [--root PATH] [--baseline PATH] [--format human|json] \
                     [--out PATH] [--explain R<N>] [--self-check]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn explain(rule_id: &str) -> ExitCode {
    let Some(ri) = RULES.iter().find(|ri| ri.id == rule_id) else {
        eprintln!(
            "dronelint: unknown rule {rule_id}; known rules: {}",
            RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(" ")
        );
        return ExitCode::from(2);
    };
    println!("{} {}", ri.id, ri.name);
    println!();
    println!("why:  {}", ri.rationale);
    println!("fix:  {}", ri.fix);
    ExitCode::SUCCESS
}

fn load_baseline(args: &Args) -> Result<Baseline, String> {
    let path = args
        .baseline
        .clone()
        .unwrap_or_else(|| args.root.join("dronelint.baseline.json"));
    match std::fs::read_to_string(&path) {
        Ok(text) => Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        // No baseline file means no grandfathered violations.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Renders the full JSON report: new violations, stale baseline
/// entries, and the item-graph statistics.
fn render_json(r: &Reconciled, stats: &GraphStats) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"violations\": [");
    let n = r.new.len();
    for (i, v) in r.new.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"snippet\": \"{}\", \"message\": \"{}\"}}{}",
            v.rule,
            json_escape(&v.path),
            v.line,
            v.col,
            json_escape(&v.snippet),
            json_escape(&v.message),
            comma
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"stale_baseline_entries\": [");
    let m = r.stale.len();
    for (i, e) in r.stale.iter().enumerate() {
        let comma = if i + 1 < m { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"snippet\": \"{}\"}}{}",
            e.rule,
            json_escape(&e.path),
            json_escape(&e.snippet),
            comma
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"baselined\": {},", r.baselined);
    let _ = writeln!(s, "  \"graph\": {{");
    let _ = writeln!(s, "    \"files_scanned\": {},", stats.files_scanned);
    let _ = writeln!(s, "    \"graph_files\": {},", stats.graph_files);
    let _ = writeln!(s, "    \"fn_nodes\": {},", stats.fn_nodes);
    let _ = writeln!(s, "    \"type_nodes\": {},", stats.type_nodes);
    let _ = writeln!(s, "    \"call_edges\": {},", stats.call_edges);
    let _ = writeln!(s, "    \"r3_inferred_files\": {},", stats.r3_inferred_files);
    let _ = writeln!(s, "    \"r3_legacy_files\": {},", stats.r3_legacy_files);
    let _ = writeln!(s, "    \"r4_inferred_files\": {},", stats.r4_inferred_files);
    let _ = writeln!(s, "    \"island_fns\": {},", stats.island_fns);
    let _ = writeln!(s, "    \"wall_ms\": {}", stats.wall_ms);
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

fn print_human(r: &Reconciled, stats: &GraphStats) {
    for v in &r.new {
        let name = RULES
            .iter()
            .find(|ri| ri.id == v.rule)
            .map(|ri| ri.name)
            .unwrap_or("suppression");
        println!(
            "{}:{}:{}: {} [{}/{}]",
            v.path, v.line, v.col, v.message, v.rule, name
        );
        println!("    {}", v.snippet);
    }
    for e in &r.stale {
        println!(
            "stale baseline entry: [{}] {} `{}` — the violation is fixed; remove it from the baseline",
            e.rule, e.path, e.snippet
        );
    }
    println!(
        "dronelint: {} file(s), graph {} fns / {} types / {} edges, R3 scope {} file(s) \
         (legacy {}), R4 scope {} file(s), {} island fn(s), {} ms",
        stats.files_scanned,
        stats.fn_nodes,
        stats.type_nodes,
        stats.call_edges,
        stats.r3_inferred_files,
        stats.r3_legacy_files,
        stats.r4_inferred_files,
        stats.island_fns,
        stats.wall_ms
    );
    if r.new.is_empty() && r.stale.is_empty() {
        println!("dronelint: clean ({} baselined)", r.baselined);
    } else {
        println!(
            "dronelint: {} new violation(s), {} stale baseline entr(ies), {} baselined",
            r.new.len(),
            r.stale.len(),
            r.baselined
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = &args.explain {
        return explain(rule);
    }
    let baseline = if args.self_check {
        // The self-check ignores the baseline: the lint's own crate
        // must be clean outright.
        Baseline::default()
    } else {
        match load_baseline(&args) {
            Ok(b) => b,
            Err(msg) => {
                eprintln!("dronelint: {msg}");
                return ExitCode::from(2);
            }
        }
    };
    // dronelint:allow(R2, wall-clock here times the lint run itself for the JSON report; no simulation state depends on it)
    let started = std::time::Instant::now();
    let mut analysis = match analyze_workspace(&args.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dronelint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    // dronelint:allow(R2, see above: diagnostic timing only)
    analysis.stats.wall_ms = started.elapsed().as_millis();
    if args.self_check {
        analysis
            .violations
            .retain(|v| v.path.starts_with("crates/dronelint/"));
    }
    let r = baseline.reconcile(analysis.violations);
    if args.json {
        print!("{}", render_json(&r, &analysis.stats));
    } else {
        print_human(&r, &analysis.stats);
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, render_json(&r, &analysis.stats)) {
            eprintln!("dronelint: writing {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if r.new.is_empty() && r.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
