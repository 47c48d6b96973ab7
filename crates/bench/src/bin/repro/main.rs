//! `repro` — reproduces the paper's evaluation one id at a time (Figs. 5–13
//! except the scaling figures, Tables 1–6 except Table 3) plus the ◆
//! ablations DESIGN.md calls out.
//!
//! ```text
//! repro <id>... | all | --list   [--large] [--steps N] [--solve-re R,...] [--stl FILE]
//! ```
//!
//! Each id is one function returning its tables, the CSV each is written to
//! and the paper's shape check; this file owns the options, the printing,
//! the CSV writing and the one timing helper. Figs. 7–10 and Table 3 are
//! `repro_scaling`, whose `--check`/`--artifact` modes CI gates on.
//!
//! Exit status: 0 on success, 1 when an input file is unreadable or
//! malformed or a CSV cannot be written, 2 on a usage error.

mod ablation;
mod kernel;
mod mesh;
mod solve;

use carve_io::Table;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Settings shared by every id; each id reads the ones it has.
#[derive(Debug, Default, PartialEq)]
pub struct Opts {
    /// Bigger meshes for fig11, table4, fig13, table5 and table6.
    pub large: bool,
    /// Time steps of the flow solves (fig13 default 4, table5 default 1).
    pub steps: Option<usize>,
    /// Reynolds numbers fig13 solves for, not just tabulates (default 100).
    pub solve_re: Option<Vec<f64>>,
    /// An STL body for fig5 instead of the procedural dragon.
    pub stl: Option<PathBuf>,
}

/// What one id produces.
#[derive(Default)]
pub struct Report {
    /// Lines printed before the tables: inputs and mesh sizes.
    pub notes: Vec<String>,
    /// Each table and the CSV it is written to, if any.
    pub tables: Vec<(Table, Option<&'static str>)>,
    /// The paper's shape, printed after the tables.
    pub check: String,
}

type Run = fn(&Opts) -> Result<Report, String>;

struct Experiment {
    id: &'static str,
    what: &'static str,
    run: Run,
}

const fn exp(id: &'static str, what: &'static str, run: Run) -> Experiment {
    Experiment { id, what, run }
}

/// In the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    exp("fig5", "voxel signed-distance convergence", mesh::fig5),
    exp("table1", "stretched vs carved conditioning", mesh::table1),
    exp("fig6", "naive vs SBM convergence on a disk", solve::fig6),
    exp("table2", "immersed/carved f_elem and f_DOF", mesh::table2),
    exp("fig11", "ghost-node stats, eta ∝ 1/(p+1)", mesh::fig11),
    exp("fig12", "roofline data for the leaf MATVEC", kernel::fig12),
    exp("table4", "vs the complete-octree baseline", mesh::table4),
    exp("fig13", "sphere drag across the drag crisis", solve::fig13),
    exp("table5", "classroom immersed vs carved", solve::table5),
    exp("table6", "classroom strong scaling", mesh::table6),
    exp("ablation", "◆ design-choice ablations", ablation::run),
];

const USAGE: &str =
    "usage: repro <id>... | all | --list   [--large] [--steps N] [--solve-re R,...] [--stl FILE]

  --large          bigger meshes (fig11, table4, fig13, table5, table6)
  --steps N        time steps of the flow solves (fig13: 4, table5: 1)
  --solve-re R,... Reynolds numbers fig13 runs the solver at (default 100)
  --stl FILE       an STL body for fig5 instead of the procedural dragon";

/// `(value, seconds)` of one call of `f`: the one clock the ids read.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Seconds per call of `f` over `reps` calls, after one warm-up call.
pub fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    timed(|| (0..reps).for_each(|_| f())).1 / reps as f64
}

#[derive(Debug, PartialEq)]
enum Command {
    Help,
    List,
    Run(Vec<&'static str>, Opts),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut ids = Vec::new();
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--list" => return Ok(Command::List),
            "--large" => opts.large = true,
            "--steps" => {
                let v = value()?;
                opts.steps = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or(format!("--steps {v:?}: expected a whole number ≥ 1"))?,
                );
            }
            "--solve-re" => {
                let v = value()?;
                let re: Option<Vec<f64>> = v
                    .split(',')
                    .map(|x| {
                        x.trim()
                            .parse::<f64>()
                            .ok()
                            .filter(|r| r.is_finite() && *r > 0.0)
                    })
                    .collect();
                opts.solve_re =
                    Some(re.ok_or(format!("--solve-re {v:?}: expected positive numbers R,..."))?);
            }
            "--stl" => opts.stl = Some(PathBuf::from(value()?)),
            "all" => ids.extend(EXPERIMENTS.iter().map(|e| e.id)),
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            id => ids.push(
                EXPERIMENTS
                    .iter()
                    .find(|e| e.id == id)
                    .ok_or(format!("unknown id {id:?} (see repro --list)"))?
                    .id,
            ),
        }
    }
    if ids.is_empty() {
        return Err("no id given".into());
    }
    Ok(Command::Run(ids, opts))
}

/// Runs one id: prints its notes, tables and shape check, writes its CSVs.
fn run(e: &Experiment, opts: &Opts) -> Result<(), String> {
    println!("### {} — {}\n", e.id, e.what);
    let (report, secs) = timed(|| (e.run)(opts));
    let report = report.map_err(|err| format!("{}: {err}", e.id))?;
    for note in &report.notes {
        println!("{note}");
    }
    if !report.notes.is_empty() {
        println!();
    }
    let mut unwritten = Vec::new();
    for (i, (table, csv)) in report.tables.iter().enumerate() {
        if i > 0 {
            println!();
        }
        table.print();
        if let Some(path) = csv {
            if let Err(err) = table.to_csv(Path::new(path)) {
                unwritten.push(format!("cannot write {path}: {err}"));
            }
        }
    }
    println!("\n{}", report.check.trim_end());
    println!("\n[{} took {secs:.1} s]\n", e.id);
    if unwritten.is_empty() {
        Ok(())
    } else {
        Err(unwritten.join("\n"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ids, opts) = match parse(&args) {
        Ok(Command::Help) => return println!("{USAGE}"),
        Ok(Command::List) => {
            for e in EXPERIMENTS {
                println!("{:<9} {}", e.id, e.what);
            }
            return;
        }
        Ok(Command::Run(ids, opts)) => (ids, opts),
        Err(err) => {
            eprintln!("repro: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for id in ids {
        let e = EXPERIMENTS.iter().find(|e| e.id == id).expect("parsed id");
        if let Err(err) = run(e, &opts) {
            eprintln!("repro: {err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_ids_and_flags() {
        assert_eq!(
            parse(&args("fig13 table5 --large --steps 3 --solve-re 100,1e3")),
            Ok(Command::Run(
                vec!["fig13", "table5"],
                Opts {
                    large: true,
                    steps: Some(3),
                    solve_re: Some(vec![100.0, 1000.0]),
                    stl: None,
                }
            ))
        );
        assert_eq!(
            parse(&args("--stl body.stl fig5")),
            Ok(Command::Run(
                vec!["fig5"],
                Opts {
                    stl: Some("body.stl".into()),
                    ..Opts::default()
                }
            ))
        );
        let Ok(Command::Run(all, _)) = parse(&args("all")) else {
            panic!("all must parse");
        };
        assert_eq!(all, EXPERIMENTS.iter().map(|e| e.id).collect::<Vec<_>>());
        assert_eq!(parse(&args("--list")), Ok(Command::List));
        assert_eq!(parse(&args("fig5 --help")), Ok(Command::Help));
    }

    #[test]
    fn rejects_unknown_ids_flags_and_unparsable_values() {
        for bad in [
            "",
            "fig99",
            "repro_fig5",
            "fig5 --huge",
            "fig5 -x",
            "fig13 --steps",
            "fig13 --steps abc",
            "fig13 --steps 0",
            "fig13 --steps -2",
            "fig13 --solve-re",
            "fig13 --solve-re 100,x",
            "fig13 --solve-re 0",
            "fig13 --solve-re -5",
            "fig13 --solve-re NaN",
            "fig13 --solve-re inf",
            "fig13 --solve-re 100,,300",
            "fig5 --stl",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be a usage error");
        }
    }

    #[test]
    fn unreadable_or_malformed_stl_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("repro-stl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let garbage = dir.join("garbage.stl");
        std::fs::write(&garbage, b"not an stl").unwrap();
        let empty = dir.join("empty.stl");
        std::fs::write(&empty, [0u8; 84]).unwrap();
        let short = dir.join("short.stl");
        let mut bytes = vec![0u8; 84];
        bytes[80] = 5; // claims 5 triangles, holds none
        std::fs::write(&short, bytes).unwrap();
        let facet = |v: [&str; 3]| {
            let v = v.map(|x| format!("vertex {x}\n"));
            format!(
                "facet normal 0 0 0\nouter loop\n{}{}{}endloop\nendfacet\n",
                v[0], v[1], v[2]
            )
        };
        let (a, b, c, d) = (".4 .4 .4", ".6 .4 .4", ".4 .6 .4", ".4 .4 .6");
        let tet = [[a, c, b], [a, b, d], [a, d, c], [b, c, d]]
            .map(facet)
            .concat();
        let good = dir.join("tet.stl");
        std::fs::write(&good, format!("solid tet\n{tet}endsolid tet\n")).unwrap();
        let opts = Opts {
            stl: Some(good),
            ..Opts::default()
        };
        assert_eq!(mesh::fig5_body(&opts).map(|t| t.tris.len()), Ok(4));
        let nan = dir.join("nan.stl");
        std::fs::write(
            &nan,
            format!("solid t\n{}endsolid t\n", facet(["nan 0 0", b, c])),
        )
        .unwrap();
        for path in [
            dir.join("missing.stl"),
            garbage,
            empty,
            short,
            nan,
            dir.clone(),
        ] {
            let opts = Opts {
                stl: Some(path.clone()),
                ..Opts::default()
            };
            assert!(
                mesh::fig5(&opts).is_err(),
                "{} must be rejected",
                path.display()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
