//! Minimal flag parsing (no external dependencies) against one
//! allowed-flag table per subcommand.

use std::collections::HashMap;

/// One subcommand's flag table: the synopsis `lsopc <name> --help`
/// prints. Every `--flag` it names is a flag the subcommand accepts,
/// and no other (see [`CommandSpec::accepts`]).
#[derive(Debug)]
pub struct CommandSpec {
    /// Subcommand name.
    pub name: &'static str,
    /// Synopsis lines, as shown under `USAGE:`.
    pub synopsis: &'static str,
}

impl CommandSpec {
    /// Whether the synopsis lists `--{key}`.
    pub fn accepts(&self, key: &str) -> bool {
        self.synopsis
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .filter_map(|t| t.strip_prefix("--"))
            .any(|flag| flag == key)
    }
}

/// `lsopc optimize`.
pub const OPTIMIZE: CommandSpec = CommandSpec {
    name: "optimize",
    synopsis: "  lsopc optimize --glp <design.glp> --out <mask.glp>
                 [--grid 512] [--iters 30] [--kernels 24] [--pvb-weight 1.0]
                 [--threads N] [--recover on|off|strict] [--precision f64|f32]
                 [--schedule auto|off|CPX,K,CI,FI]
                 [--tile N] [--halo N] [--warm-start mem|<dir>] [--warm-iters N]
                 [--deadline SECS] [--max-wall SECS] [--iter-budget N]
                 [--checkpoint <path>] [--checkpoint-every N] [--resume <path>]
                 [--trace <out.jsonl>] [--metrics <out.json>]",
};

/// `lsopc evaluate`.
pub const EVALUATE: CommandSpec = CommandSpec {
    name: "evaluate",
    synopsis: "  lsopc evaluate --glp <design.glp> --mask <mask.glp>
                 [--grid 512] [--kernels 24] [--threads N]",
};

/// `lsopc report`.
pub const REPORT: CommandSpec = CommandSpec {
    name: "report",
    synopsis: "  lsopc report   --glp <design.glp> --mask <mask.glp>
                 [--grid 512] [--kernels 24] [--min-width-nm 40] [--min-space-nm 40]
                 [--threads N]",
};

/// `lsopc suite`.
pub const SUITE: CommandSpec = CommandSpec {
    name: "suite",
    synopsis: "  lsopc suite    [--cases 1,2,...] [--grid 256] [--iters 20] [--kernels 24]
                 [--pvb-weight 1.0] [--threads N] [--recover on|off|strict]
                 [--precision f64|f32] [--schedule auto|off|CPX,K,CI,FI]
                 [--deadline SECS] [--max-wall SECS]
                 [--trace <out.jsonl>] [--metrics <out.json>]",
};

/// `lsopc profile`.
pub const PROFILE: CommandSpec = CommandSpec {
    name: "profile",
    synopsis: "  lsopc profile  [--pattern wire|dense|contacts] [--grid 256] [--iters 10]
                 [--kernels 24] [--pvb-weight 1.0] [--threads N]
                 [--recover on|off|strict] [--precision f64|f32]
                 [--schedule auto|off|CPX,K,CI,FI] [--json]
                 [--trace <out.jsonl>] [--metrics <out.json>]",
};

/// `lsopc analyze` (one positional path, no flags).
pub const ANALYZE: CommandSpec = CommandSpec {
    name: "analyze",
    synopsis: "  lsopc analyze  <trace.jsonl>",
};

/// Every subcommand, in usage order.
pub const COMMANDS: [&CommandSpec; 6] = [&OPTIMIZE, &EVALUATE, &REPORT, &SUITE, &PROFILE, &ANALYZE];

/// Whether `args` ask for the subcommand's help text.
pub fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs against `spec`'s flag table; bare
    /// flags get an empty value.
    ///
    /// # Errors
    ///
    /// Returns an error for non-flag positional arguments and for any
    /// flag outside the table, naming the flag.
    pub fn parse(args: &[String], spec: &CommandSpec) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if !spec.accepts(key) {
                return Err(format!(
                    "unknown flag --{key} for `lsopc {}` (see `lsopc {} --help`)",
                    spec.name, spec.name
                ));
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = (*v).clone();
                    it.next();
                    v
                }
                _ => String::new(),
            };
            values.insert(key.to_string(), value);
        }
        Ok(Self { values })
    }

    /// Raw string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None | Some("") => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    /// Comma-separated 1-based index list (e.g. `--cases 1,3`).
    ///
    /// # Errors
    ///
    /// Returns an error when an entry does not parse.
    pub fn index_list(&self, key: &str) -> Result<Vec<usize>, String> {
        match self.get(key) {
            None | Some("") => Ok(Vec::new()),
            Some(list) => list
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse::<usize>()
                        .map(|i| i.saturating_sub(1))
                        .map_err(|_| format!("invalid index `{t}` in --{key}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_key_value_pairs() {
        let flags =
            Flags::parse(&argv(&["--glp", "a.glp", "--grid", "256"]), &OPTIMIZE).expect("parses");
        assert_eq!(flags.get("glp"), Some("a.glp"));
        assert_eq!(flags.num("grid", 512usize).expect("num"), 256);
        assert_eq!(flags.num("iters", 30usize).expect("default"), 30);
    }

    #[test]
    fn rejects_positional() {
        assert!(Flags::parse(&argv(&["oops"]), &OPTIMIZE).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let flags = Flags::parse(&argv(&[]), &OPTIMIZE).expect("parses");
        assert!(flags.require("glp").expect_err("missing").contains("--glp"));
    }

    #[test]
    fn index_list_is_one_based() {
        let flags = Flags::parse(&argv(&["--cases", "1,4,10"]), &SUITE).expect("parses");
        assert_eq!(flags.index_list("cases").expect("list"), vec![0, 3, 9]);
    }

    #[test]
    fn bare_flag_has_empty_value() {
        let flags = Flags::parse(&argv(&["--json", "--grid", "128"]), &PROFILE).expect("parses");
        assert_eq!(flags.get("json"), Some(""));
        assert_eq!(flags.num("grid", 0usize).expect("num"), 128);
    }
}
