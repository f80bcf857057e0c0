//! Parameterized Verilog emission — and machine checking — for the
//! TSN-Builder templates.
//!
//! The paper's output artifact is Verilog: five function templates whose
//! table/queue/buffer geometry is injected through the Table II APIs at
//! synthesis time. This crate reproduces that synthesis stage and then
//! closes the loop by parsing, linting and costing its own output:
//!
//! * [`ast`] — a small Verilog-2001 AST (modules, parameters, ports,
//!   memories, instances, `always` blocks) with an emitter;
//! * [`templates`] — generators for the five templates plus the shared
//!   primitives (`dpram`, `meta_fifo`) and the `tsn_switch_top` that wires
//!   one Gate Ctrl + Egress Sched per enabled TSN port;
//! * [`parse`] — the one reader of Verilog text: a structural parser
//!   producing a module/port/parameter/memory/instance IR rich enough to
//!   analyze, which also rejects unbalanced brackets and `begin`/`end`
//!   blocks and duplicate modules; every generated file must parse;
//! * [`expr`] — depth-bounded integer evaluation of the width/depth
//!   expressions the parser keeps as text, against a parameter
//!   environment;
//! * [`lint`] — structural checks over the parsed IR (width mismatches,
//!   unused ports, undeclared identifiers, address-width/depth
//!   violations, …); shipped bundles must lint clean;
//! * [`cost`] — elaborates the parsed design into its memory map and
//!   register count and demands bit-exact agreement with
//!   `tsn_resource::rtl` (the `hdl-cost-agreement` oracle).
//!
//! # Example
//!
//! ```
//! use tsn_hdl::templates::generate;
//! use tsn_hdl::{cost, lint, parse_modules};
//! use tsn_resource::ResourceConfig;
//!
//! let cfg = ResourceConfig::new();
//! let bundle = generate(&cfg)?;
//! let modules = parse_modules(&bundle.concatenated())?;
//! assert!(lint::lint_modules(&modules).is_empty());
//! cost::check_agreement(&cfg, &modules).expect("HDL cost matches tsn-resource");
//! # Ok::<(), tsn_types::TsnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cost;
pub mod expr;
pub mod lint;
pub mod parse;
pub mod templates;

pub use ast::{Dir, Item, Module, Param, Port};
pub use cost::{check_agreement, cost_of, HdlCost, MemoryInstance};
pub use lint::{lint_modules, LintFinding};
pub use parse::{
    parse_modules, ParsedInstance, ParsedMemory, ParsedModule, ParsedNet, ParsedPort, ParsedRange,
};
pub use templates::{generate, HdlBundle};
