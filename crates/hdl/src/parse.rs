//! A structural Verilog parser: enough of the grammar to read back what
//! [`crate::templates`] emits and machine-check it.
//!
//! This is deliberately not a full Verilog front-end — it recovers the
//! *structure* a reviewer checks by eye, now rich enough for the
//! [`crate::lint`] and [`crate::cost`] passes to work on: module names,
//! parameter defaults, port directions/ranges, net and memory
//! declarations with their width/depth expressions, `assign` statements,
//! and module instantiations with their parameter overrides and named
//! connections. Width expressions stay textual here; [`crate::expr`]
//! evaluates them against a parameter environment.
//!
//! It is also the crate's only reader of Verilog text, so it rejects what
//! a structural read alone would let through: unbalanced brackets or
//! `begin`/`end` blocks, an unterminated block comment, anything between
//! modules (a stray `endmodule`) and a repeated module name.
//!
//! Every public entry point returns [`TsnError::InvalidArtifact`] on
//! malformed or truncated input — never a panic (pinned by the
//! prefix-truncation tests below).

use crate::ast::Dir;
use std::collections::BTreeSet;
use tsn_types::{TsnError, TsnResult};

/// One token of the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    Ident(String),
    Number(String),
    Sym(char),
}

/// Lexes a source fragment. `//` line comments and `/* … */` block
/// comments (including multi-line ones) are skipped.
///
/// # Errors
///
/// Returns [`TsnError::InvalidArtifact`] for an unterminated block
/// comment (it would swallow the rest of the input) and for brackets
/// that do not balance or nest (`(`/`)`, `[`/`]`, `{`/`}`).
pub(crate) fn lex(source: &str) -> TsnResult<Vec<Tok>> {
    let mut toks = Vec::new();
    let mut open = Vec::new();
    let mut chars = source.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '/' {
            chars.next();
            match chars.peek() {
                Some(&'/') => {
                    for c in chars.by_ref() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                Some(&'*') => {
                    chars.next();
                    let mut prev = ' ';
                    let mut terminated = false;
                    for c in chars.by_ref() {
                        if prev == '*' && c == '/' {
                            terminated = true;
                            break;
                        }
                        prev = c;
                    }
                    if !terminated {
                        return Err(TsnError::InvalidArtifact(
                            "unterminated block comment".to_owned(),
                        ));
                    }
                }
                _ => toks.push(Tok::Sym('/')),
            }
        } else if c.is_ascii_alphabetic() || c == '_' {
            let mut ident = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                    ident.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            toks.push(Tok::Ident(ident));
        } else if c.is_ascii_digit() {
            let mut num = String::new();
            while let Some(&c) = chars.peek() {
                // Covers sized literals like 8'h00 and plain decimals.
                if c.is_ascii_alphanumeric() || c == '\'' || c == '_' {
                    num.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            toks.push(Tok::Number(num));
        } else {
            match c {
                '(' | '[' | '{' => open.push(c),
                ')' | ']' | '}' => {
                    let opener = match c {
                        ')' => '(',
                        ']' => '[',
                        _ => '{',
                    };
                    if open.pop() != Some(opener) {
                        return Err(TsnError::InvalidArtifact(format!(
                            "unbalanced bracket {c:?}"
                        )));
                    }
                }
                _ => {}
            }
            toks.push(Tok::Sym(c));
            chars.next();
        }
    }
    if let Some(c) = open.pop() {
        return Err(TsnError::InvalidArtifact(format!("unclosed bracket {c:?}")));
    }
    Ok(toks)
}

/// A `[msb:lsb]` range, both bounds kept as expression text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRange {
    /// Left (most-significant / first) bound expression.
    pub msb: String,
    /// Right (least-significant / second) bound expression.
    pub lsb: String,
}

/// A parsed port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPort {
    /// Direction.
    pub dir: Dir,
    /// The `[msb:lsb]` range, if declared; `None` means a scalar port.
    pub range: Option<ParsedRange>,
    /// Port name.
    pub name: String,
}

impl ParsedPort {
    /// `true` when the port carries a `[..:..]` range.
    #[must_use]
    pub fn has_range(&self) -> bool {
        self.range.is_some()
    }
}

/// A parsed `wire`/`reg` net declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedNet {
    /// Width range, if declared; `None` means a 1-bit net.
    pub range: Option<ParsedRange>,
    /// Net name.
    pub name: String,
}

/// A parsed memory (`reg [w] name [d];`) declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedMemory {
    /// Element width range, if declared; `None` means 1-bit elements.
    pub range: Option<ParsedRange>,
    /// Depth range (e.g. `[0:DEPTH-1]`).
    pub depth: ParsedRange,
    /// Memory name.
    pub name: String,
}

/// A parsed module instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedInstance {
    /// Name of the instantiated module.
    pub module: String,
    /// Instance name.
    pub name: String,
    /// `#(.NAME(expr))` parameter overrides, in order.
    pub params: Vec<(String, String)>,
    /// `.port(net-expr)` connections, in order.
    pub connections: Vec<(String, String)>,
}

/// A parsed module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedModule {
    /// Module name.
    pub name: String,
    /// `(parameter name, default expression)` pairs.
    pub params: Vec<(String, String)>,
    /// Ports, in declaration order.
    pub ports: Vec<ParsedPort>,
    /// `wire` declarations in the body.
    pub wires: Vec<ParsedNet>,
    /// Plain `reg` declarations in the body (memories excluded).
    pub regs: Vec<ParsedNet>,
    /// Memory (`reg [..] name [..];`) declarations.
    pub memories: Vec<ParsedMemory>,
    /// `localparam name = value;` pairs.
    pub localparams: Vec<(String, String)>,
    /// `assign lhs = rhs;` statements (lhs text, rhs text).
    pub assigns: Vec<(String, String)>,
    /// Module instantiations in the body.
    pub instances: Vec<ParsedInstance>,
    /// Every identifier mentioned anywhere in the body (declarations,
    /// expressions, sensitivity lists, connections) minus keywords. The
    /// unused-port lint checks ports against this set.
    pub body_refs: BTreeSet<String>,
}

impl ParsedModule {
    /// Looks a parameter's default expression up by name.
    #[must_use]
    pub fn param_default(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Looks a port up by name.
    #[must_use]
    pub fn port(&self, name: &str) -> Option<&ParsedPort> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Looks a memory up by name.
    #[must_use]
    pub fn memory(&self, name: &str) -> Option<&ParsedMemory> {
        self.memories.iter().find(|m| m.name == name)
    }
}

pub(crate) const KEYWORDS: &[&str] = &[
    "module",
    "endmodule",
    "input",
    "output",
    "inout",
    "reg",
    "wire",
    "assign",
    "always",
    "begin",
    "end",
    "if",
    "else",
    "parameter",
    "localparam",
    "posedge",
    "negedge",
    "initial",
    "forever",
    "integer",
];

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Sym(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, c: char, context: &str) -> TsnResult<()> {
        if self.eat_sym(c) {
            Ok(())
        } else {
            Err(TsnError::InvalidArtifact(format!(
                "expected {c:?} in {context}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self, what: &str) -> TsnResult<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(TsnError::InvalidArtifact(format!(
                "expected {what}, found {other:?}"
            ))),
        }
    }

    /// Collects tokens until one of `stops` appears at depth 0 (brackets
    /// tracked), rendering them back to text. Running out of tokens ends
    /// the scan: truncated input surfaces as a structured parse error at
    /// the caller (which will miss its stop symbol), never as a panic.
    fn text_until(&mut self, stops: &[char]) -> String {
        let mut depth = 0i32;
        let mut out = String::new();
        let mut prev_word = false;
        while let Some(tok) = self.peek() {
            if depth == 0 {
                if let Tok::Sym(c) = tok {
                    if stops.contains(c) {
                        break;
                    }
                }
            }
            let Some(tok) = self.next() else { break };
            match tok {
                Tok::Sym(c) => {
                    match c {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' => depth -= 1,
                        _ => {}
                    }
                    out.push(c);
                    prev_word = false;
                }
                Tok::Ident(s) | Tok::Number(s) => {
                    // Space only between adjacent word tokens, so
                    // `WIDTH-1` and `A*2` render back verbatim.
                    if prev_word {
                        out.push(' ');
                    }
                    out.push_str(&s);
                    prev_word = true;
                }
            }
        }
        out
    }

    /// Parses an optional `[msb:lsb]` range in a declaration position.
    fn parse_range(&mut self) -> TsnResult<Option<ParsedRange>> {
        if !self.eat_sym('[') {
            return Ok(None);
        }
        let msb = self.text_until(&[':', ']']);
        self.expect_sym(':', "range")?;
        let lsb = self.text_until(&[']']);
        self.expect_sym(']', "range")?;
        Ok(Some(ParsedRange { msb, lsb }))
    }

    /// Parses a `.name(expr)` list terminated by `)` — shared by
    /// parameter overrides and port connections. Tokens that are neither
    /// `.name(expr)` nor commas (e.g. positional arguments) are skipped.
    fn parse_named_list(&mut self, what: &str) -> TsnResult<Vec<(String, String)>> {
        let mut out = Vec::new();
        loop {
            if self.eat_sym(')') {
                return Ok(out);
            }
            if self.eat_sym('.') {
                let name = self.expect_ident(what)?;
                self.expect_sym('(', what)?;
                let value = self.text_until(&[')']);
                self.expect_sym(')', what)?;
                out.push((name, value));
            } else if self.next().is_none() {
                return Err(TsnError::InvalidArtifact(format!("unterminated {what}")));
            }
        }
    }

    fn parse_module(&mut self) -> TsnResult<ParsedModule> {
        let name = self.expect_ident("module name")?;
        let mut module = ParsedModule {
            name,
            params: Vec::new(),
            ports: Vec::new(),
            wires: Vec::new(),
            regs: Vec::new(),
            memories: Vec::new(),
            localparams: Vec::new(),
            assigns: Vec::new(),
            instances: Vec::new(),
            body_refs: BTreeSet::new(),
        };

        // #( parameter N = V, ... )
        if self.eat_sym('#') {
            self.expect_sym('(', "parameter list")?;
            loop {
                match self.next() {
                    Some(Tok::Ident(kw)) if kw == "parameter" => {
                        let pname = self.expect_ident("parameter name")?;
                        self.expect_sym('=', "parameter")?;
                        let value = self.text_until(&[',', ')']);
                        module.params.push((pname, value));
                    }
                    Some(Tok::Sym(',')) => {}
                    Some(Tok::Sym(')')) => break,
                    other => {
                        return Err(TsnError::InvalidArtifact(format!(
                            "unexpected token in parameter list: {other:?}"
                        )))
                    }
                }
            }
        }

        // ( port declarations )
        if !self.eat_sym('(') {
            return Err(TsnError::InvalidArtifact(
                "expected port list after module header".to_owned(),
            ));
        }
        loop {
            match self.next() {
                Some(Tok::Sym(')')) => break,
                Some(Tok::Sym(',')) => {}
                Some(Tok::Ident(dir_kw)) if ["input", "output"].contains(&dir_kw.as_str()) => {
                    let mut dir = if dir_kw == "input" {
                        Dir::Input
                    } else {
                        Dir::Output
                    };
                    // Optional `reg`.
                    if self.peek() == Some(&Tok::Ident("reg".to_owned())) {
                        self.pos += 1;
                        if dir == Dir::Output {
                            dir = Dir::OutputReg;
                        }
                    }
                    let range = self.parse_range()?;
                    let pname = self.expect_ident("port name")?;
                    module.ports.push(ParsedPort {
                        dir,
                        range,
                        name: pname,
                    });
                }
                other => {
                    return Err(TsnError::InvalidArtifact(format!(
                        "unexpected token in port list: {other:?}"
                    )))
                }
            }
        }
        self.expect_sym(';', "module header")?;

        // Body: structured declarations, instances, balanced
        // `begin`/`end` blocks, endmodule.
        let body_start = self.pos;
        let mut open_blocks = 0usize;
        loop {
            match self.next() {
                None => {
                    return Err(TsnError::InvalidArtifact(format!(
                        "module {} missing endmodule",
                        module.name
                    )))
                }
                Some(Tok::Ident(kw)) if kw == "endmodule" => {
                    if open_blocks > 0 {
                        return Err(TsnError::InvalidArtifact(format!(
                            "module {}: {open_blocks} unclosed begin block(s)",
                            module.name
                        )));
                    }
                    break;
                }
                Some(Tok::Ident(kw)) if kw == "begin" => open_blocks += 1,
                Some(Tok::Ident(kw)) if kw == "end" => {
                    open_blocks = open_blocks.checked_sub(1).ok_or_else(|| {
                        TsnError::InvalidArtifact(format!(
                            "module {}: end without matching begin",
                            module.name
                        ))
                    })?;
                }
                Some(Tok::Ident(kw)) if kw == "wire" => {
                    let range = self.parse_range()?;
                    let name = self.expect_ident("wire name")?;
                    self.text_until(&[';']);
                    self.expect_sym(';', "wire declaration")?;
                    module.wires.push(ParsedNet { range, name });
                }
                Some(Tok::Ident(kw)) if kw == "reg" => {
                    let range = self.parse_range()?;
                    let name = self.expect_ident("reg name")?;
                    let depth = self.parse_range()?;
                    self.text_until(&[';']);
                    self.expect_sym(';', "reg declaration")?;
                    match depth {
                        Some(depth) => module.memories.push(ParsedMemory { range, depth, name }),
                        None => module.regs.push(ParsedNet { range, name }),
                    }
                }
                Some(Tok::Ident(kw)) if kw == "localparam" => {
                    let name = self.expect_ident("localparam name")?;
                    self.expect_sym('=', "localparam")?;
                    let value = self.text_until(&[';']);
                    self.expect_sym(';', "localparam")?;
                    module.localparams.push((name, value));
                }
                Some(Tok::Ident(kw)) if kw == "assign" => {
                    let lhs = self.text_until(&['=']);
                    self.expect_sym('=', "assign")?;
                    let rhs = self.text_until(&[';']);
                    self.expect_sym(';', "assign")?;
                    module.assigns.push((lhs, rhs));
                }
                Some(Tok::Ident(ident)) if !KEYWORDS.contains(&ident.as_str()) => {
                    // Candidate instantiation:
                    //   IDENT [#(.P(v), …)] IDENT ( .p(n), … );
                    // Anything that stops matching before the opening
                    // `(` of the connection list backtracks (it was an
                    // expression statement, not an instance).
                    let saved = self.pos;
                    let mut params = Vec::new();
                    if self.eat_sym('#') {
                        if !self.eat_sym('(') {
                            self.pos = saved;
                            continue;
                        }
                        params = self.parse_named_list("parameter override")?;
                    }
                    let Some(Tok::Ident(inst_name)) = self.peek().cloned() else {
                        self.pos = saved;
                        continue;
                    };
                    self.pos += 1;
                    if !self.eat_sym('(') {
                        self.pos = saved;
                        continue;
                    }
                    let connections = self.parse_named_list("connection")?;
                    self.expect_sym(';', "instance")?;
                    module.instances.push(ParsedInstance {
                        module: ident,
                        name: inst_name,
                        params,
                        connections,
                    });
                }
                _ => {}
            }
        }
        // `self.pos - 1` points past the consumed `endmodule`.
        for tok in &self.toks[body_start..self.pos.saturating_sub(1)] {
            if let Tok::Ident(s) = tok {
                if !KEYWORDS.contains(&s.as_str()) {
                    module.body_refs.insert(s.clone());
                }
            }
        }
        Ok(module)
    }
}

/// Parses every module in a Verilog source string.
///
/// # Errors
///
/// Returns [`TsnError::InvalidArtifact`] on structurally broken input:
/// unbalanced brackets or `begin`/`end` blocks, an unterminated block
/// comment, a missing or stray `endmodule` (any top-level token but
/// `module`), a repeated module name, malformed parameter/port lists and
/// truncated declarations.
///
/// # Example
///
/// ```
/// use tsn_hdl::parse::parse_modules;
///
/// let src = "module m #(\n parameter W = 8\n) (\n input clk,\n output [W-1:0] q\n);\nendmodule\n";
/// let modules = parse_modules(src)?;
/// assert_eq!(modules.len(), 1);
/// assert_eq!(modules[0].name, "m");
/// assert_eq!(modules[0].params, vec![("W".to_owned(), "8".to_owned())]);
/// assert_eq!(modules[0].ports.len(), 2);
/// # Ok::<(), tsn_types::TsnError>(())
/// ```
pub fn parse_modules(source: &str) -> TsnResult<Vec<ParsedModule>> {
    let mut parser = Parser {
        toks: lex(source)?,
        pos: 0,
    };
    let mut modules: Vec<ParsedModule> = Vec::new();
    while let Some(tok) = parser.next() {
        if tok != Tok::Ident("module".to_owned()) {
            return Err(TsnError::InvalidArtifact(format!(
                "expected module at top level, found {tok:?}"
            )));
        }
        let module = parser.parse_module()?;
        if modules.iter().any(|m| m.name == module.name) {
            return Err(TsnError::InvalidArtifact(format!(
                "duplicate module {:?}",
                module.name
            )));
        }
        modules.push(module);
    }
    Ok(modules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Item, Module, Port};
    use crate::templates::generate;
    use tsn_resource::ResourceConfig;

    #[test]
    fn parses_a_hand_written_module() {
        let src = "module demo #(\n    parameter WIDTH = 32,\n    parameter DEPTH = 16\n) (\n    input clk,\n    input [WIDTH-1:0] din,\n    output reg [WIDTH-1:0] dout\n);\n    reg [WIDTH-1:0] mem [0:DEPTH-1];\nendmodule\n";
        let modules = parse_modules(src).expect("parses");
        assert_eq!(modules.len(), 1);
        let m = &modules[0];
        assert_eq!(m.name, "demo");
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.params[0], ("WIDTH".to_owned(), "32".to_owned()));
        assert_eq!(m.ports.len(), 3);
        assert_eq!(
            m.ports[0],
            ParsedPort {
                dir: Dir::Input,
                range: None,
                name: "clk".into()
            }
        );
        assert_eq!(m.ports[2].dir, Dir::OutputReg);
        assert!(m.ports[2].has_range());
        assert_eq!(
            m.ports[2].range.as_ref().map(|r| r.msb.as_str()),
            Some("WIDTH-1")
        );
        assert_eq!(m.memories.len(), 1);
        let mem = m.memory("mem").expect("memory parsed");
        assert_eq!(mem.depth.msb, "0");
        assert_eq!(mem.depth.lsb, "DEPTH-1");
        assert_eq!(mem.range.as_ref().map(|r| r.msb.as_str()), Some("WIDTH-1"));
    }

    #[test]
    fn parses_instances_with_overrides_and_connections() {
        let src = "module top (\n    input clk\n);\n    fifo #(.DEPTH(12)) u_f (\n        .clk(clk),\n        .din(8'h00)\n    );\nendmodule\n";
        let modules = parse_modules(src).expect("parses");
        assert_eq!(
            modules[0].instances,
            vec![ParsedInstance {
                module: "fifo".into(),
                name: "u_f".into(),
                params: vec![("DEPTH".into(), "12".into())],
                connections: vec![("clk".into(), "clk".into()), ("din".into(), "8'h00".into())],
            }]
        );
        assert!(modules[0].body_refs.contains("fifo"));
        assert!(modules[0].body_refs.contains("clk"));
    }

    #[test]
    fn parses_wires_regs_assigns_and_localparams() {
        let src = "module m (\n    input clk\n);\n    localparam LP = 7;\n    wire [LP-1:0] w;\n    reg r;\n    reg [3:0] counter;\n    assign w = counter + LP;\nendmodule\n";
        let m = &parse_modules(src).expect("parses")[0];
        assert_eq!(m.localparams, vec![("LP".to_owned(), "7".to_owned())]);
        assert_eq!(m.wires.len(), 1);
        assert_eq!(m.wires[0].name, "w");
        assert_eq!(
            m.wires[0].range.as_ref().map(|r| r.msb.as_str()),
            Some("LP-1")
        );
        assert_eq!(m.regs.len(), 2);
        assert_eq!(
            m.regs[0],
            ParsedNet {
                range: None,
                name: "r".into()
            }
        );
        assert_eq!(m.assigns.len(), 1);
        assert_eq!(m.assigns[0].0, "w");
        assert!(m.body_refs.contains("counter"));
    }

    #[test]
    fn accepts_and_rejects_source_shapes() {
        // (source, name of its one module, or `None` for a reject)
        let cases: &[(&str, Option<&str>)] = &[
            (
                "module m #(\n parameter W = 8\n) (\n input clk\n);\n\
                 always @(posedge clk) begin\n end\nendmodule\n",
                Some("m"),
            ),
            // Comments: line, inline, multi-line, between keyword and
            // name, and `//` inside `/* */`.
            (
                "module m ( input clk ); // begin ( [ module\nendmodule\n",
                Some("m"),
            ),
            (
                "module m ( input clk ); /* begin ( [ module */\nendmodule\n",
                Some("m"),
            ),
            (
                "module m ( input clk );\n/* module ghost ( input x );\n\
                 begin begin [ { (\n*/\nendmodule\n",
                Some("m"),
            ),
            ("module/* x */m ( input clk );\nendmodule\n", Some("m")),
            (
                "module /* not_the_name */ n ( input clk );\nendmodule\n",
                Some("n"),
            ),
            (
                "module m ( input clk );\n/* // x\nbegin [\n*/\nendmodule\n",
                Some("m"),
            ),
            // `legend` and `end_of_frame` are not `end`.
            (
                "module m ( input clk );\nalways @(posedge clk) begin\n\
                 legend <= end_of_frame;\nend\nendmodule\n",
                Some("m"),
            ),
            ("module a ();\nendmodule\nendmodule\n", None), // stray endmodule
            ("module a ();\n", None),                       // missing endmodule
            (
                "module m ( input clk );\nalways @(posedge clk) begin\nendmodule\n",
                None,
            ),
            ("module m ( input clk );\nend\nendmodule\n", None), // stray end
            ("module a ();\nendmodule\nmodule a ();\nendmodule\n", None), // duplicate
            ("module m ( input clk );\nendmodule\n/* trailing", None), // unterminated
            (
                "module m ( input clk );\nalways @(posedge clk) begin\n\
                 legend <= (clk;\nend\nendmodule\n",
                None,
            ),
            ("module m ( input [7:0 d );\nendmodule\n", None),
            ("module m ( input d ));\nendmodule\n", None),
            ("module 1abc ( input clk );\nendmodule\n", None),
        ];
        for &(src, expected) in cases {
            let got = parse_modules(src).map(|ms| ms.into_iter().map(|m| m.name).collect());
            match expected {
                Some(name) => assert_eq!(got.ok(), Some(vec![name.to_owned()]), "{src:?}"),
                None => assert!(got.is_err(), "{src:?} accepted"),
            }
        }
    }

    #[test]
    fn emitted_ast_round_trips() {
        let mut m = Module::new("roundtrip");
        m.param("A", 7)
            .param("B", "A*2")
            .port(Port::input("1", "clk"))
            .port(Port::input("A", "d"))
            .port(Port::output_reg("B", "q"))
            .item(Item::Memory {
                width: "A".into(),
                depth: "B".into(),
                name: "store".into(),
            });
        let parsed = parse_modules(&m.emit()).expect("parses");
        assert_eq!(parsed.len(), 1);
        let p = &parsed[0];
        assert_eq!(p.name, "roundtrip");
        assert_eq!(p.params.len(), 2);
        assert_eq!(p.params[0].0, "A");
        assert_eq!(p.ports.len(), 3);
        assert_eq!(p.memories.len(), 1);
        assert_eq!(p.memories[0].name, "store");
    }

    #[test]
    fn every_generated_file_parses_and_matches_structure() {
        let bundle = generate(&ResourceConfig::new()).expect("generates");
        let mut all = Vec::new();
        for (name, src) in bundle.files() {
            let modules =
                parse_modules(src).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
            assert_eq!(modules.len(), 1, "{name} holds exactly one module");
            all.push(modules.into_iter().next().expect("one module"));
        }
        let names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "dpram",
                "meta_fifo",
                "time_sync",
                "packet_switch",
                "ingress_filter",
                "gate_ctrl",
                "egress_sched",
                "tsn_switch_top",
                "tsn_switch_tb"
            ]
        );
        // The top instantiates the shared blocks plus one gate_ctrl and
        // one egress_sched per enabled port (1 for the default ring
        // config).
        let top = &all[7];
        let count = |module: &str| top.instances.iter().filter(|i| i.module == module).count();
        assert_eq!(count("time_sync"), 1);
        assert_eq!(count("packet_switch"), 1);
        assert_eq!(count("ingress_filter"), 1);
        assert_eq!(count("gate_ctrl"), 1);
        assert_eq!(count("egress_sched"), 1);
        // gate_ctrl holds the 8 per-queue FIFOs, each with full override
        // and connection lists.
        let gates = &all[5];
        let fifos: Vec<_> = gates
            .instances
            .iter()
            .filter(|i| i.module == "meta_fifo")
            .collect();
        assert_eq!(fifos.len(), 8);
        for fifo in &fifos {
            assert_eq!(fifo.params.len(), 3);
            assert_eq!(fifo.connections.len(), 8);
        }
        // Memories: GCLs in gate_ctrl, meter table in the filter.
        assert!(gates.memory("in_gcl").is_some());
        assert!(gates.memory("out_gcl").is_some());
        assert!(all[4].memory("meter_tbl").is_some());
    }

    #[test]
    fn parsed_parameters_track_the_config() {
        let mut cfg = ResourceConfig::new();
        cfg.set_queues(24, 8, 2).expect("valid");
        let bundle = generate(&cfg).expect("generates");
        let gates = parse_modules(bundle.file("gate_ctrl.v").expect("file")).expect("parses");
        assert_eq!(gates[0].param_default("QUEUE_DEPTH"), Some("24"));
        let top = parse_modules(bundle.file("tsn_switch_top.v").expect("file")).expect("parses");
        assert_eq!(
            top[0]
                .instances
                .iter()
                .filter(|i| i.module == "gate_ctrl")
                .count(),
            2,
            "two enabled ports, two gate controllers"
        );
    }

    #[test]
    fn truncated_verilog_errors_instead_of_panicking() {
        // Every prefix of every generated file must parse to Ok or a
        // structured error — cutting the token stream mid-construct used
        // to hit `self.next().expect("peeked")`.
        let bundle = generate(&ResourceConfig::new()).expect("generates");
        for (name, src) in bundle.files() {
            for cut in (0..src.len()).step_by(61).chain([src.len() - 1]) {
                let Some(prefix) = src.get(..cut) else {
                    continue; // not a char boundary
                };
                let _ = parse_modules(prefix); // Ok or Err, never a panic
                let _ = std::hint::black_box(name);
            }
        }
    }

    #[test]
    fn garbage_input_errors_instead_of_panicking() {
        let cases = [
            "module",
            "module m",
            "module m #(",
            "module m #( parameter W = ",
            "module m #( parameter W = 8",
            "module m #( parameter W = [8",
            "module m (",
            "module m ( input ",
            "module m ( input [7:0",
            "module m ( input [7",
            "module m ( input clk ); reg [7:0] mem [0:3",
            "module m ( input clk ); wire [3",
            "module m ( input clk ); localparam X",
            "module m ( input clk ); assign a",
            "module m ( input clk ); sub #( .W(8",
            "module m ( input clk ); sub u0 ( .a(b",
            ")))]]]}}}",
            "module ; ( ) # = , .",
            "/ // /// #(((",
            "module m ( input clk ); /* unterminated",
        ];
        for src in cases {
            let _ = parse_modules(src); // must return, never panic
        }
    }
}
