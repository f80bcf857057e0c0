//! Integer evaluation of the width/depth expressions the parser keeps
//! as text.
//!
//! The generated Verilog only ever uses `+ - * / %`, parentheses, plain
//! decimal numbers and parameter names in declaration ranges, so that is
//! the whole grammar here. Evaluation happens against an environment of
//! resolved parameter values; anything outside the grammar (sized
//! literals, missing identifiers, division by zero or overflow, nesting
//! deeper than 64 levels) is a soft `Err` the callers turn into "could
//! not resolve" rather than a lint finding.

use crate::parse::{lex, ParsedRange, Tok, KEYWORDS};
use std::collections::BTreeMap;

/// Parameter-name → resolved-value environment.
pub type Env = BTreeMap<String, i64>;

/// Deepest nesting of parentheses and unary minus [`eval`] accepts. The
/// evaluator recurses once per level; generated code nests a few levels,
/// hostile input could otherwise exhaust the stack.
const MAX_NESTING: usize = 64;

/// Evaluates an integer expression against `env`.
///
/// # Errors
///
/// Returns a human-readable reason when the expression falls outside the
/// supported grammar or references an identifier missing from `env`.
///
/// # Example
///
/// ```
/// use tsn_hdl::expr::{eval, Env};
///
/// let mut env = Env::new();
/// env.insert("WIDTH".to_owned(), 32);
/// assert_eq!(eval("WIDTH-1", &env), Ok(31));
/// assert_eq!(eval("2*(WIDTH+1)", &env), Ok(66));
/// assert!(eval("MISSING-1", &env).is_err());
/// ```
pub fn eval(expr: &str, env: &Env) -> Result<i64, String> {
    let toks = lex(expr).map_err(|e| e.to_string())?;
    let mut p = ExprParser {
        toks: &toks,
        pos: 0,
        depth: 0,
        env,
    };
    let value = p.add_expr()?;
    if p.pos != toks.len() {
        return Err(format!("trailing tokens in expression {expr:?}"));
    }
    Ok(value)
}

/// Width in bits of a declaration range: `|msb - lsb| + 1`.
///
/// Works for both `[W-1:0]` (width) and `[0:D-1]` (depth) orderings.
///
/// # Errors
///
/// Propagates [`eval`] failures from either bound, and fails when the
/// width overflows `i64`.
pub fn range_width(range: &ParsedRange, env: &Env) -> Result<i64, String> {
    let msb = eval(&range.msb, env)?;
    let lsb = eval(&range.lsb, env)?;
    msb.checked_sub(lsb)
        .and_then(i64::checked_abs)
        .and_then(|w| w.checked_add(1))
        .ok_or_else(|| format!("range [{msb}:{lsb}] overflows"))
}

/// Bit width of a connection expression, where statically known.
///
/// Only two shapes resolve: a plain identifier (looked up in
/// `net_widths`) and a sized literal like `4'b0101` (the size prefix).
/// Everything else — slices, concatenations, arithmetic, unsized
/// literals — returns `None`: Verilog implicitly resizes those, so the
/// width lint must not judge them.
#[must_use]
pub fn connection_width(expr: &str, net_widths: &BTreeMap<String, i64>) -> Option<i64> {
    let toks = lex(expr).ok()?;
    match toks.as_slice() {
        [Tok::Ident(name)] => net_widths.get(name).copied(),
        [Tok::Number(num)] => {
            let (size, _) = num.split_once('\'')?;
            size.parse::<i64>().ok().filter(|&s| s > 0)
        }
        _ => None,
    }
}

/// Every non-keyword identifier mentioned in an expression, in order of
/// first appearance. Text that does not lex (unbalanced brackets, an
/// unterminated comment) mentions none.
#[must_use]
pub fn idents(expr: &str) -> Vec<String> {
    let mut seen = Vec::new();
    for tok in lex(expr).unwrap_or_default() {
        if let Tok::Ident(name) = tok {
            if !KEYWORDS.contains(&name.as_str()) && !seen.contains(&name) {
                seen.push(name);
            }
        }
    }
    seen
}

struct ExprParser<'a> {
    toks: &'a [Tok],
    pos: usize,
    /// Open parentheses and unary minuses around the current atom.
    depth: usize,
    env: &'a Env,
}

impl ExprParser<'_> {
    fn add_expr(&mut self) -> Result<i64, String> {
        let mut acc = self.mul_expr()?;
        loop {
            match self.toks.get(self.pos) {
                Some(Tok::Sym('+')) => {
                    self.pos += 1;
                    acc = acc.saturating_add(self.mul_expr()?);
                }
                Some(Tok::Sym('-')) => {
                    self.pos += 1;
                    acc = acc.saturating_sub(self.mul_expr()?);
                }
                _ => return Ok(acc),
            }
        }
    }

    fn mul_expr(&mut self) -> Result<i64, String> {
        let mut acc = self.atom()?;
        loop {
            match self.toks.get(self.pos) {
                Some(Tok::Sym('*')) => {
                    self.pos += 1;
                    acc = acc.saturating_mul(self.atom()?);
                }
                Some(Tok::Sym('/')) => {
                    self.pos += 1;
                    let rhs = self.atom()?;
                    if rhs == 0 {
                        return Err("division by zero".to_owned());
                    }
                    acc = acc
                        .checked_div(rhs)
                        .ok_or_else(|| format!("{acc}/{rhs} overflows"))?;
                }
                Some(Tok::Sym('%')) => {
                    self.pos += 1;
                    let rhs = self.atom()?;
                    if rhs == 0 {
                        return Err("modulo by zero".to_owned());
                    }
                    acc = acc
                        .checked_rem(rhs)
                        .ok_or_else(|| format!("{acc}%{rhs} overflows"))?;
                }
                _ => return Ok(acc),
            }
        }
    }

    /// Enters one nesting level (a `(` or a unary `-`) around `inner`.
    fn nested(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<i64, String>,
    ) -> Result<i64, String> {
        if self.depth == MAX_NESTING {
            return Err(format!("expression nests deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn atom(&mut self) -> Result<i64, String> {
        match self.toks.get(self.pos) {
            Some(Tok::Sym('-')) => {
                self.pos += 1;
                self.nested(|p| Ok(p.atom()?.saturating_neg()))
            }
            Some(Tok::Sym('(')) => {
                self.pos += 1;
                let value = self.nested(Self::add_expr)?;
                if self.toks.get(self.pos) != Some(&Tok::Sym(')')) {
                    return Err("missing closing parenthesis".to_owned());
                }
                self.pos += 1;
                Ok(value)
            }
            Some(Tok::Number(num)) => {
                self.pos += 1;
                if num.contains('\'') {
                    return Err(format!("sized literal {num:?} is not a plain integer"));
                }
                num.replace('_', "")
                    .parse::<i64>()
                    .map_err(|_| format!("unparseable number {num:?}"))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                self.env
                    .get(name)
                    .copied()
                    .ok_or_else(|| format!("unknown identifier {name:?}"))
            }
            other => Err(format!("unexpected token {other:?} in expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, i64)]) -> Env {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn evaluates_arithmetic() {
        let e = env(&[("W", 32), ("D", 12)]);
        assert_eq!(eval("W-1", &e), Ok(31));
        assert_eq!(eval("2*W+D", &e), Ok(76));
        assert_eq!(eval("(W+D)/2", &e), Ok(22));
        assert_eq!(eval("W%5", &e), Ok(2));
        assert_eq!(eval("-3+W", &e), Ok(29));
        assert_eq!(eval("1_024", &e), Ok(1024));
    }

    #[test]
    fn rejects_bad_expressions() {
        let e = env(&[("W", 32)]);
        assert!(eval("Q-1", &e).is_err());
        assert!(eval("W/0", &e).is_err());
        assert!(eval("W%0", &e).is_err());
        assert!(eval("(W", &e).is_err());
        assert!(eval("W 3", &e).is_err());
        assert!(eval("8'h00", &e).is_err());
        assert!(eval("", &e).is_err());
    }

    #[test]
    fn range_widths_work_both_orderings() {
        let e = env(&[("W", 32), ("D", 12)]);
        let width = ParsedRange {
            msb: "W-1".into(),
            lsb: "0".into(),
        };
        assert_eq!(range_width(&width, &e), Ok(32));
        let depth = ParsedRange {
            msb: "0".into(),
            lsb: "D-1".into(),
        };
        assert_eq!(range_width(&depth, &e), Ok(12));
    }

    #[test]
    fn connection_widths_resolve_only_safe_shapes() {
        let mut nets = BTreeMap::new();
        nets.insert("data_bus".to_owned(), 64);
        assert_eq!(connection_width("data_bus", &nets), Some(64));
        assert_eq!(connection_width("4'b0101", &nets), Some(4));
        assert_eq!(connection_width("1'b0", &nets), Some(1));
        // Implicitly resized shapes stay unjudged.
        assert_eq!(connection_width("data_bus[9:0]", &nets), None);
        assert_eq!(connection_width("0", &nets), None);
        assert_eq!(connection_width("a&b", &nets), None);
        assert_eq!(connection_width("{a,b}", &nets), None);
        assert_eq!(connection_width("missing", &nets), None);
    }

    #[test]
    fn overflowing_arithmetic_is_a_soft_error() {
        let e = Env::new();
        assert!(eval("(0-9223372036854775807-1)/(0-1)", &e).is_err());
        assert!(eval("(0-9223372036854775807-1)%(0-1)", &e).is_err());
        let range = ParsedRange {
            msb: "0-9223372036854775807-1".into(),
            lsb: "1".into(),
        };
        assert!(range_width(&range, &e).is_err());
        // The lint pass evaluates parameter defaults and port ranges.
        for src in [
            "module m #(\n parameter W = (0-9223372036854775807-1)/(0-1)\n) (\n input clk\n);\nendmodule\n",
            "module m #(\n parameter W = (0-9223372036854775807-1)%(0-1)\n) (\n input clk\n);\nendmodule\n",
            "module m (\n input [0-9223372036854775807-1:1] x\n);\nendmodule\n",
        ] {
            let modules = crate::parse::parse_modules(src).expect("parses");
            let _ = crate::lint::lint_modules(&modules);
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let e = env(&[("W", 32)]);
        let at_limit = format!("{}W{}", "(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        assert_eq!(eval(&at_limit, &e), Ok(32));
        assert_eq!(eval(&format!("{}W", "-".repeat(MAX_NESTING)), &e), Ok(32));
        let deep = 100_000;
        let parens = format!("{}W{}", "(".repeat(deep), ")".repeat(deep));
        assert!(eval(&parens, &e).is_err());
        assert!(eval(&format!("{}W", "-".repeat(deep)), &e).is_err());
    }

    #[test]
    fn idents_skip_keywords_and_dedupe() {
        assert_eq!(
            idents("a + begin + b*a"),
            vec!["a".to_owned(), "b".to_owned()]
        );
        assert!(idents("1'b0 + 4").is_empty());
    }
}
