//! The Query PM: an OQL[C++]-flavoured query facility over extents,
//! with index-aware planning, plus the expression language shared with
//! the REACH rule system (§7 names "the combination of the ECA-rule
//! description with Open OODB's query language, OQL[C++]" as an area of
//! interest — sharing one expression core is our answer).
//!
//! Queries have the shape
//!
//! ```text
//! select r from River r where r.waterLevel < 37 and r.getTemp() > 20.5
//! ```
//!
//! Expressions support literals, variables, attribute access (`.` or the
//! paper's C++ `->`), method calls, arithmetic, comparisons and
//! `and`/`or`/`not`. Evaluation happens against an [`EvalCtx`] that
//! carries variable bindings and (for method calls) the dispatcher.

use crate::meta::PolicyManager;
use crate::pm::indexing::IndexingPm;
use reach_common::{ClassId, ReachError, Result, TxnId};
use reach_object::{Dispatcher, ObjectSpace, Value};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Expression AST
// ---------------------------------------------------------------------

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// The expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A free variable resolved from the binding environment.
    Var(String),
    /// Attribute access: `base.attr` / `base->attr`.
    Attr(Box<Expr>, String),
    /// Method call: `base.m(args)` / `base->m(args)`.
    Call(Box<Expr>, String, Vec<Expr>),
    /// Logical negation (`not e` / `!e`).
    Not(Box<Expr>),
    /// Arithmetic negation (`-e`).
    Neg(Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

/// Evaluation environment for an expression.
pub struct EvalCtx<'a> {
    pub space: &'a ObjectSpace,
    pub dispatcher: &'a Dispatcher,
    pub txn: TxnId,
    pub bindings: &'a HashMap<String, Value>,
}

impl Expr {
    /// Evaluate against a context.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Result<Value> {
        match self {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Var(name) => ctx
                .bindings
                .get(name)
                .cloned()
                .ok_or_else(|| ReachError::Query(format!("unbound variable {name:?}"))),
            Expr::Attr(base, attr) => {
                let oid = base.eval(ctx)?.as_ref_id()?;
                ctx.space.get_attr(oid, attr)
            }
            Expr::Call(base, method, args) => {
                let oid = base.eval(ctx)?.as_ref_id()?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(a.eval(ctx)?);
                }
                ctx.dispatcher
                    .invoke(ctx.space, ctx.txn, oid, method, &argv)
            }
            Expr::Not(e) => Ok(Value::Bool(!e.eval(ctx)?.as_bool()?)),
            Expr::Neg(e) => match e.eval(ctx)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                v => Err(ReachError::TypeMismatch {
                    expected: "numeric".into(),
                    got: format!("{:?}", v.value_type()),
                }),
            },
            Expr::Bin(op, l, r) => eval_bin(*op, l, r, ctx),
        }
    }

    /// Convenience: evaluate and coerce to boolean.
    pub fn eval_bool(&self, ctx: &EvalCtx<'_>) -> Result<bool> {
        self.eval(ctx)?.as_bool()
    }
}

fn eval_bin(op: BinOp, l: &Expr, r: &Expr, ctx: &EvalCtx<'_>) -> Result<Value> {
    use std::cmp::Ordering;
    // Short-circuit logical operators.
    match op {
        BinOp::And => {
            return Ok(Value::Bool(l.eval_bool(ctx)? && r.eval_bool(ctx)?));
        }
        BinOp::Or => {
            return Ok(Value::Bool(l.eval_bool(ctx)? || r.eval_bool(ctx)?));
        }
        _ => {}
    }
    let lv = l.eval(ctx)?;
    let rv = r.eval(ctx)?;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(op, &lv, &rv),
        BinOp::Eq => Ok(Value::Bool(lv.compare(&rv) == Ordering::Equal)),
        BinOp::Ne => Ok(Value::Bool(lv.compare(&rv) != Ordering::Equal)),
        BinOp::Lt => Ok(Value::Bool(lv.compare(&rv) == Ordering::Less)),
        BinOp::Le => Ok(Value::Bool(lv.compare(&rv) != Ordering::Greater)),
        BinOp::Gt => Ok(Value::Bool(lv.compare(&rv) == Ordering::Greater)),
        BinOp::Ge => Ok(Value::Bool(lv.compare(&rv) != Ordering::Less)),
        BinOp::And | BinOp::Or => unreachable!(),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // Integer arithmetic stays integral; any float operand widens.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(Value::Int(match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => {
                if *b == 0 {
                    return Err(ReachError::Query("division by zero".into()));
                }
                a / b
            }
            _ => unreachable!(),
        }));
    }
    let a = l.as_float()?;
    let b = r.as_float()?;
    Ok(Value::Float(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => unreachable!(),
    }))
}

// ---------------------------------------------------------------------
// Expression parser (recursive descent; shared with the rule language)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
}

fn tokenize(src: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '+' | '*' | '/' | '%' | '.' => {
                out.push(Tok::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '+' => "+",
                    '*' => "*",
                    '/' => "/",
                    '%' => "%",
                    _ => ".",
                }));
                i += 1;
            }
            '-' => {
                if b.get(i + 1) == Some(&b'>') {
                    out.push(Tok::Sym("."));
                    i += 2;
                } else {
                    out.push(Tok::Sym("-"));
                    i += 1;
                }
            }
            '<' | '>' | '=' | '!' => {
                let two = b.get(i + 1) == Some(&b'=');
                out.push(Tok::Sym(match (c, two) {
                    ('<', true) => "<=",
                    ('<', false) => "<",
                    ('>', true) => ">=",
                    ('>', false) => ">",
                    ('=', true) => "==",
                    ('=', false) => "==", // tolerate single '='
                    ('!', true) => "!=",
                    ('!', false) => "!",
                    _ => unreachable!(),
                }));
                i += if two { 2 } else { 1 };
            }
            '&' => {
                if b.get(i + 1) == Some(&b'&') {
                    out.push(Tok::Sym("and"));
                    i += 2;
                } else {
                    return Err(parse_err("expected && "));
                }
            }
            '|' => {
                if b.get(i + 1) == Some(&b'|') {
                    out.push(Tok::Sym("or"));
                    i += 2;
                } else {
                    return Err(parse_err("expected ||"));
                }
            }
            '"' | '\'' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] as char != quote {
                    j += 1;
                }
                if j == b.len() {
                    return Err(parse_err("unterminated string literal"));
                }
                out.push(Tok::Str(src[start..j].to_string()));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                while i < b.len() && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                    i += 1;
                    while i < b.len() && (b[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                    out.push(Tok::Float(
                        src[start..i]
                            .parse()
                            .map_err(|_| parse_err("bad float literal"))?,
                    ));
                } else {
                    out.push(Tok::Int(
                        src[start..i]
                            .parse()
                            .map_err(|_| parse_err("bad integer literal"))?,
                    ));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                match word {
                    "and" => out.push(Tok::Sym("and")),
                    "or" => out.push(Tok::Sym("or")),
                    "not" => out.push(Tok::Sym("!")),
                    "true" => out.push(Tok::Ident("true".into())),
                    "false" => out.push(Tok::Ident("false".into())),
                    "null" => out.push(Tok::Ident("null".into())),
                    _ => out.push(Tok::Ident(word.to_string())),
                }
            }
            other => return Err(parse_err(&format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

fn parse_err(msg: &str) -> ReachError {
    ReachError::Query(format!("parse error: {msg}"))
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        let hit = matches!(self.peek(), Some(Tok::Sym(t)) if *t == s);
        self.pos += usize::from(hit);
        hit
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if !self.eat_sym(s) {
            return Err(parse_err(&format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )));
        }
        Ok(())
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek().cloned() {
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                Ok(name)
            }
            other => Err(parse_err(&format!("expected identifier, found {other:?}"))),
        }
    }

    /// One left-associative level: `next (op next)*`, where `op` maps
    /// the symbols of this level to their operators.
    fn binary(
        &mut self,
        next: fn(&mut Self) -> Result<Expr>,
        op: fn(&str) -> Option<BinOp>,
    ) -> Result<Expr> {
        let mut left = next(self)?;
        while let Some(op) = self.peek().and_then(|t| match t {
            Tok::Sym(s) => op(s),
            _ => None,
        }) {
            self.pos += 1;
            left = Expr::Bin(op, Box::new(left), Box::new(next(self)?));
        }
        Ok(left)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        self.binary(Self::and_expr, |s| (s == "or").then_some(BinOp::Or))
    }

    fn and_expr(&mut self) -> Result<Expr> {
        self.binary(Self::cmp_expr, |s| (s == "and").then_some(BinOp::And))
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Sym("==")) => BinOp::Eq,
            Some(Tok::Sym("!=")) => BinOp::Ne,
            Some(Tok::Sym("<")) => BinOp::Lt,
            Some(Tok::Sym("<=")) => BinOp::Le,
            Some(Tok::Sym(">")) => BinOp::Gt,
            Some(Tok::Sym(">=")) => BinOp::Ge,
            _ => return Ok(left),
        };
        self.pos += 1;
        Ok(Expr::Bin(op, Box::new(left), Box::new(self.add_expr()?)))
    }

    fn add_expr(&mut self) -> Result<Expr> {
        self.binary(Self::mul_expr, |s| match s {
            "+" => Some(BinOp::Add),
            "-" => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        self.binary(Self::unary_expr, |s| match s {
            "*" => Some(BinOp::Mul),
            "/" => Some(BinOp::Div),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat_sym("!") {
            return Ok(Expr::Not(Box::new(self.unary_expr()?)));
        }
        if self.eat_sym("-") {
            return Ok(Expr::Neg(Box::new(self.unary_expr()?)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut base = self.primary_expr()?;
        while self.eat_sym(".") {
            let member = self.expect_ident()?;
            if self.eat_sym("(") {
                let mut args = Vec::new();
                if !self.eat_sym(")") {
                    loop {
                        args.push(self.or_expr()?);
                        if self.eat_sym(")") {
                            break;
                        }
                        self.expect_sym(",")?;
                    }
                }
                base = Expr::Call(Box::new(base), member, args);
            } else {
                base = Expr::Attr(Box::new(base), member);
            }
        }
        Ok(base)
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let tok = self.peek().cloned();
        self.pos += 1;
        Ok(match tok {
            Some(Tok::Int(i)) => Expr::Lit(Value::Int(i)),
            Some(Tok::Float(f)) => Expr::Lit(Value::Float(f)),
            Some(Tok::Str(s)) => Expr::Lit(Value::Str(s)),
            Some(Tok::Ident(name)) => match name.as_str() {
                "true" => Expr::Lit(Value::Bool(true)),
                "false" => Expr::Lit(Value::Bool(false)),
                "null" => Expr::Lit(Value::Null),
                _ => Expr::Var(name),
            },
            Some(Tok::Sym("(")) => {
                let e = self.or_expr()?;
                self.expect_sym(")")?;
                e
            }
            other => return Err(parse_err(&format!("unexpected token {other:?}"))),
        })
    }
}

/// Parse an expression from text.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let mut p = Parser {
        toks: tokenize(src)?,
        pos: 0,
    };
    let e = p.or_expr()?;
    if p.pos != p.toks.len() {
        return Err(parse_err("trailing input after expression"));
    }
    Ok(e)
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

/// A parsed query: one range variable over one class extent.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub class_name: String,
    pub var: String,
    pub predicate: Option<Expr>,
}

/// Parse `select <v> from <Class> <v> [where <expr>]`.
pub fn parse_query(src: &str) -> Result<Query> {
    let mut p = Parser {
        toks: tokenize(src)?,
        pos: 0,
    };
    let kw = p.expect_ident()?;
    if kw != "select" {
        return Err(parse_err("query must start with 'select'"));
    }
    let select_var = p.expect_ident()?;
    let kw = p.expect_ident()?;
    if kw != "from" {
        return Err(parse_err("expected 'from'"));
    }
    let class_name = p.expect_ident()?;
    let var = p.expect_ident()?;
    if var != select_var {
        return Err(parse_err("select variable must match the range variable"));
    }
    let predicate = match p.peek().cloned() {
        Some(Tok::Ident(w)) if w == "where" => {
            p.pos += 1;
            Some(p.or_expr()?)
        }
        None => None,
        other => return Err(parse_err(&format!("unexpected {other:?} after class"))),
    };
    if p.pos != p.toks.len() {
        return Err(parse_err("trailing input after query"));
    }
    Ok(Query {
        class_name,
        var,
        predicate,
    })
}

/// How a query was answered (surfaced so tests and the optimizer bench
/// can assert plan choice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    ExtentScan,
    IndexEq { attribute: String },
    IndexRange { attribute: String },
}

/// The query policy manager.
pub struct QueryPm {
    space: Arc<ObjectSpace>,
    dispatcher: Arc<Dispatcher>,
    indexing: Arc<IndexingPm>,
}

impl QueryPm {
    pub fn new(
        space: Arc<ObjectSpace>,
        dispatcher: Arc<Dispatcher>,
        indexing: Arc<IndexingPm>,
    ) -> Self {
        QueryPm {
            space,
            dispatcher,
            indexing,
        }
    }

    /// Execute a query string within `txn`; returns matching object ids
    /// and the plan used.
    pub fn execute(&self, txn: TxnId, src: &str) -> Result<(Vec<reach_common::ObjectId>, Plan)> {
        let q = parse_query(src)?;
        self.run(txn, &q)
    }

    /// Execute a parsed query.
    pub fn run(&self, txn: TxnId, q: &Query) -> Result<(Vec<reach_common::ObjectId>, Plan)> {
        let class = self.space.schema().class_by_name(&q.class_name)?;
        // Plan: try to answer a sargable predicate from an index.
        if let Some(pred) = &q.predicate {
            if let Some((mut candidates, plan, residual, indexed)) =
                self.try_index(class, &q.var, pred)
            {
                // An ancestor's index also answers with the ancestor's
                // other descendants; keep instances of `class` only.
                if indexed != class {
                    let schema = self.space.schema();
                    let mut keep = Vec::with_capacity(candidates.len());
                    for oid in candidates {
                        if schema.is_subclass(self.space.class_of(oid)?, class) {
                            keep.push(oid);
                        }
                    }
                    candidates = keep;
                }
                let out = self.filter(txn, &q.var, candidates, residual.as_ref())?;
                return Ok((out, plan));
            }
        }
        let extent = self.space.extents().extent_deep(self.space.schema(), class);
        let out = self.filter(txn, &q.var, extent, q.predicate.as_ref())?;
        Ok((out, Plan::ExtentScan))
    }

    fn filter(
        &self,
        txn: TxnId,
        var: &str,
        candidates: Vec<reach_common::ObjectId>,
        predicate: Option<&Expr>,
    ) -> Result<Vec<reach_common::ObjectId>> {
        let Some(pred) = predicate else {
            return Ok(candidates);
        };
        let mut bindings = HashMap::new();
        let mut out = Vec::new();
        for oid in candidates {
            bindings.insert(var.to_string(), Value::Ref(oid));
            let ctx = EvalCtx {
                space: &self.space,
                dispatcher: &self.dispatcher,
                txn,
                bindings: &bindings,
            };
            if pred.eval_bool(&ctx)? {
                out.push(oid);
            }
        }
        Ok(out)
    }

    /// Recognize `var.attr <op> literal` (possibly under a top-level
    /// `and`) and answer it from an index. Returns the candidate set,
    /// the plan, the residual predicate still to apply and the class
    /// the index is on.
    fn try_index(
        &self,
        class: ClassId,
        var: &str,
        pred: &Expr,
    ) -> Option<(Vec<reach_common::ObjectId>, Plan, Option<Expr>, ClassId)> {
        // Split a top-level conjunction into clauses.
        fn clauses(e: &Expr, out: &mut Vec<Expr>) {
            if let Expr::Bin(BinOp::And, l, r) = e {
                clauses(l, out);
                clauses(r, out);
            } else {
                out.push(e.clone());
            }
        }
        let mut cs = Vec::new();
        clauses(pred, &mut cs);
        for (i, clause) in cs.iter().enumerate() {
            if let Some((attr, op, value)) = sargable(clause, var) {
                let Some(indexed) = self.indexing.index_class(class, &attr) else {
                    continue;
                };
                let (candidates, plan) = match op {
                    BinOp::Eq => (
                        self.indexing.lookup_eq(class, &attr, &value)?,
                        Plan::IndexEq {
                            attribute: attr.clone(),
                        },
                    ),
                    BinOp::Lt => (
                        self.indexing.lookup_range(
                            class,
                            &attr,
                            Bound::Unbounded,
                            Bound::Excluded(value),
                        )?,
                        Plan::IndexRange {
                            attribute: attr.clone(),
                        },
                    ),
                    BinOp::Le => (
                        self.indexing.lookup_range(
                            class,
                            &attr,
                            Bound::Unbounded,
                            Bound::Included(value),
                        )?,
                        Plan::IndexRange {
                            attribute: attr.clone(),
                        },
                    ),
                    BinOp::Gt => (
                        self.indexing.lookup_range(
                            class,
                            &attr,
                            Bound::Excluded(value),
                            Bound::Unbounded,
                        )?,
                        Plan::IndexRange {
                            attribute: attr.clone(),
                        },
                    ),
                    BinOp::Ge => (
                        self.indexing.lookup_range(
                            class,
                            &attr,
                            Bound::Included(value),
                            Bound::Unbounded,
                        )?,
                        Plan::IndexRange {
                            attribute: attr.clone(),
                        },
                    ),
                    _ => continue,
                };
                // Residual: the remaining clauses re-conjoined.
                let rest: Vec<Expr> = cs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, c)| c.clone())
                    .collect();
                let residual = rest
                    .into_iter()
                    .reduce(|a, b| Expr::Bin(BinOp::And, Box::new(a), Box::new(b)));
                return Some((candidates, plan, residual, indexed));
            }
        }
        None
    }
}

/// `var.attr <op> literal` or `literal <op> var.attr` (flipped).
fn sargable(e: &Expr, var: &str) -> Option<(String, BinOp, Value)> {
    let Expr::Bin(op, l, r) = e else { return None };
    let flip = |op: BinOp| match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    };
    let attr_of = |e: &Expr| -> Option<String> {
        if let Expr::Attr(base, attr) = e {
            if matches!(&**base, Expr::Var(v) if v == var) {
                return Some(attr.clone());
            }
        }
        None
    };
    let lit_of = |e: &Expr| -> Option<Value> {
        if let Expr::Lit(v) = e {
            Some(v.clone())
        } else {
            None
        }
    };
    if let (Some(attr), Some(val)) = (attr_of(l), lit_of(r)) {
        return Some((attr, *op, val));
    }
    if let (Some(val), Some(attr)) = (lit_of(l), attr_of(r)) {
        return Some((attr, flip(*op), val));
    }
    None
}

impl PolicyManager for QueryPm {
    fn dimension(&self) -> &'static str {
        "query"
    }
    fn name(&self) -> &'static str {
        "oql-extent-index"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_precedence_correctly() {
        // a + b * c < 10 and not d
        let e = parse_expr("a + b * c < 10 and not d").unwrap();
        match e {
            Expr::Bin(BinOp::And, l, r) => {
                assert!(matches!(*l, Expr::Bin(BinOp::Lt, _, _)));
                assert!(matches!(*r, Expr::Not(_)));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn parses_the_papers_condition() {
        // §6.1's WaterLevel condition, almost verbatim.
        let e = parse_expr(
            "x < 37 and river->getWaterTemp() > 24.5 and reactor->getHeatOutput() > 1000000",
        )
        .unwrap();
        // Left-assoc and: ((a and b) and c)
        assert!(matches!(e, Expr::Bin(BinOp::And, _, _)));
    }

    #[test]
    fn arrow_and_dot_are_interchangeable() {
        assert_eq!(
            parse_expr("r->level").unwrap(),
            parse_expr("r.level").unwrap()
        );
    }

    #[test]
    fn literal_evaluation() {
        let empty = HashMap::new();
        let schema = Arc::new(reach_object::Schema::new());
        let space = ObjectSpace::new(Arc::clone(&schema));
        let methods = Arc::new(reach_object::MethodRegistry::new());
        let disp = Dispatcher::new(schema, methods);
        let ctx = EvalCtx {
            space: &space,
            dispatcher: &disp,
            txn: TxnId::NULL,
            bindings: &empty,
        };
        assert_eq!(
            parse_expr("1 + 2 * 3").unwrap().eval(&ctx).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            parse_expr("(1 + 2) * 3").unwrap().eval(&ctx).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            parse_expr("10 / 4").unwrap().eval(&ctx).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            parse_expr("10.0 / 4").unwrap().eval(&ctx).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            parse_expr("1 < 2 and 2 < 3").unwrap().eval(&ctx).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            parse_expr("not (1 == 1)").unwrap().eval(&ctx).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            parse_expr("-5 + 1").unwrap().eval(&ctx).unwrap(),
            Value::Int(-4)
        );
        assert_eq!(
            parse_expr("'abc' == \"abc\"").unwrap().eval(&ctx).unwrap(),
            Value::Bool(true)
        );
        assert!(parse_expr("1 / 0").unwrap().eval(&ctx).is_err());
    }

    #[test]
    fn unbound_variable_errors() {
        let empty = HashMap::new();
        let schema = Arc::new(reach_object::Schema::new());
        let space = ObjectSpace::new(Arc::clone(&schema));
        let disp = Dispatcher::new(schema, Arc::new(reach_object::MethodRegistry::new()));
        let ctx = EvalCtx {
            space: &space,
            dispatcher: &disp,
            txn: TxnId::NULL,
            bindings: &empty,
        };
        assert!(parse_expr("ghost").unwrap().eval(&ctx).is_err());
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("select r from River r where r.level < 37").unwrap();
        assert_eq!(q.class_name, "River");
        assert_eq!(q.var, "r");
        assert!(q.predicate.is_some());
        let q = parse_query("select x from Reactor x").unwrap();
        assert!(q.predicate.is_none());
        assert!(parse_query("select a from River b").is_err());
        assert!(parse_query("frobnicate the database").is_err());
    }

    #[test]
    fn sargable_recognition() {
        let e = parse_expr("r.level < 37").unwrap();
        let (attr, op, val) = sargable(&e, "r").unwrap();
        assert_eq!(attr, "level");
        assert_eq!(op, BinOp::Lt);
        assert_eq!(val, Value::Int(37));
        // Flipped comparison.
        let e = parse_expr("37 >= r.level").unwrap();
        let (_, op, _) = sargable(&e, "r").unwrap();
        assert_eq!(op, BinOp::Le);
        // Method calls are not sargable.
        assert!(sargable(&parse_expr("r.temp() < 3").unwrap(), "r").is_none());
    }
}
