//! Recursive-descent parser for the pyfn language.
//!
//! Grammar (roughly):
//!
//! ```text
//! module     := stmt* EOF
//! stmt       := def | if | while | for | simple NEWLINE
//! def        := "def" NAME "(" params ")" ":" block
//! block      := NEWLINE INDENT stmt+ DEDENT
//! simple     := assign | augassign | return | break | continue | pass
//!             | raise | expr
//! expr       := ternary
//! ternary    := or ("if" or "else" ternary)?
//! or         := and ("or" and)*
//! and        := not ("and" not)*
//! not        := "not" not | comparison
//! comparison := arith (("=="|"!="|"<"|"<="|">"|">="|"in"|"not in") arith)?
//! arith      := term (("+"|"-") term)*
//! term       := factor (("*"|"/"|"//"|"%") factor)*
//! factor     := ("-"|"+")? power
//! power      := postfix ("**" factor)?
//! postfix    := atom ( "(" args ")" | "[" slice "]" | "." NAME "(" args ")" )*
//! atom       := literal | NAME | "(" expr ")" | list | dict
//! ```

use crate::ast::*;
use crate::lexer::{Tok, Token};

/// Parse a token stream produced by [`crate::lexer::lex`].
pub(crate) fn parse(tokens: Vec<Token>) -> Result<Module, String> {
    let mut p = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    while !p.check(&Tok::EndOfFile) {
        stmts.push(p.statement()?);
    }
    Ok(Module { stmts })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.check(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, ctx: &str) -> Result<(), String> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(format!(
                "line {}: expected {t} in {ctx}, found {}",
                self.line(),
                self.peek()
            ))
        }
    }

    fn name(&mut self, ctx: &str) -> Result<String, String> {
        match self.bump() {
            Tok::Name(n) => Ok(n),
            other => Err(format!(
                "line {}: expected name in {ctx}, found {other}",
                self.line()
            )),
        }
    }

    // ---- statements -----------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, String> {
        match self.peek() {
            Tok::Def => self.def(),
            Tok::If => self.if_stmt(),
            Tok::While => self.while_stmt(),
            Tok::For => self.for_stmt(),
            _ => {
                let s = self.simple_stmt()?;
                self.expect(&Tok::Newline, "statement")?;
                Ok(s)
            }
        }
    }

    fn block(&mut self, ctx: &str) -> Result<Vec<Stmt>, String> {
        self.expect(&Tok::Newline, ctx)?;
        self.expect(&Tok::Indent, ctx)?;
        let mut stmts = Vec::new();
        while !self.check(&Tok::Dedent) && !self.check(&Tok::EndOfFile) {
            stmts.push(self.statement()?);
        }
        self.expect(&Tok::Dedent, ctx)?;
        if stmts.is_empty() {
            return Err(format!("line {}: empty block in {ctx}", self.line()));
        }
        Ok(stmts)
    }

    fn def(&mut self) -> Result<Stmt, String> {
        self.expect(&Tok::Def, "def")?;
        let name = self.name("def")?;
        self.expect(&Tok::LParen, "def parameters")?;
        let mut params = Vec::new();
        let mut seen_default = false;
        if !self.check(&Tok::RParen) {
            loop {
                let pname = self.name("parameter list")?;
                let default = if self.eat(&Tok::Eq) {
                    seen_default = true;
                    Some(self.expr()?)
                } else {
                    if seen_default {
                        return Err(format!(
                            "line {}: non-default parameter '{pname}' follows default parameter",
                            self.line()
                        ));
                    }
                    None
                };
                if params.iter().any(|p: &Param| p.name == pname) {
                    return Err(format!(
                        "line {}: duplicate parameter '{pname}'",
                        self.line()
                    ));
                }
                params.push(Param {
                    name: pname,
                    default,
                });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "def parameters")?;
        self.expect(&Tok::Colon, "def")?;
        let body = self.block("function body")?;
        Ok(Stmt::Def { name, params, body })
    }

    fn if_stmt(&mut self) -> Result<Stmt, String> {
        self.expect(&Tok::If, "if")?;
        let cond = self.expr()?;
        self.expect(&Tok::Colon, "if")?;
        let then = self.block("if body")?;
        let orelse = if self.check(&Tok::Elif) {
            // Desugar `elif` into a nested if inside else.
            // Consume nothing: re-enter if_stmt with Elif as If.
            self.tokens[self.pos].kind = Tok::If;
            vec![self.if_stmt()?]
        } else if self.eat(&Tok::Else) {
            self.expect(&Tok::Colon, "else")?;
            self.block("else body")?
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then, orelse })
    }

    fn while_stmt(&mut self) -> Result<Stmt, String> {
        self.expect(&Tok::While, "while")?;
        let cond = self.expr()?;
        self.expect(&Tok::Colon, "while")?;
        let body = self.block("while body")?;
        Ok(Stmt::While { cond, body })
    }

    fn for_stmt(&mut self) -> Result<Stmt, String> {
        self.expect(&Tok::For, "for")?;
        let mut vars = vec![self.name("for target")?];
        while self.eat(&Tok::Comma) {
            let v = self.name("for target")?;
            if vars.contains(&v) {
                return Err(format!(
                    "line {}: duplicate loop variable '{v}'",
                    self.line()
                ));
            }
            vars.push(v);
        }
        self.expect(&Tok::In, "for")?;
        let iterable = self.expr()?;
        self.expect(&Tok::Colon, "for")?;
        let body = self.block("for body")?;
        Ok(Stmt::For {
            vars,
            iterable,
            body,
        })
    }

    fn simple_stmt(&mut self) -> Result<Stmt, String> {
        match self.peek() {
            Tok::Return => {
                self.bump();
                if self.check(&Tok::Newline) {
                    Ok(Stmt::Return(None))
                } else {
                    Ok(Stmt::Return(Some(self.expr()?)))
                }
            }
            Tok::Break => {
                self.bump();
                Ok(Stmt::Break)
            }
            Tok::Continue => {
                self.bump();
                Ok(Stmt::Continue)
            }
            Tok::Pass => {
                self.bump();
                Ok(Stmt::Pass)
            }
            Tok::Raise => {
                self.bump();
                Ok(Stmt::Raise(self.expr()?))
            }
            _ => {
                // Could be assignment, augmented assignment, or expression.
                let expr = self.expr()?;
                match self.peek() {
                    Tok::Eq => {
                        self.bump();
                        let value = self.expr()?;
                        Ok(Stmt::Assign {
                            target: to_target(expr, self.line())?,
                            value,
                        })
                    }
                    Tok::PlusEq | Tok::MinusEq | Tok::StarEq | Tok::SlashEq => {
                        let op = match self.bump() {
                            Tok::PlusEq => BinOp::Add,
                            Tok::MinusEq => BinOp::Sub,
                            Tok::StarEq => BinOp::Mul,
                            Tok::SlashEq => BinOp::Div,
                            _ => unreachable!(),
                        };
                        let value = self.expr()?;
                        Ok(Stmt::AugAssign {
                            target: to_target(expr, self.line())?,
                            op,
                            value,
                        })
                    }
                    _ => Ok(Stmt::Expr(expr)),
                }
            }
        }
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, String> {
        let value = self.or_expr()?;
        // Ternary: `a if cond else b`.
        if self.check(&Tok::If) {
            self.bump();
            let cond = self.or_expr()?;
            self.expect(&Tok::Else, "conditional expression")?;
            let orelse = self.expr()?;
            return Ok(Expr::IfExp {
                cond: Box::new(cond),
                then: Box::new(value),
                orelse: Box::new(orelse),
            });
        }
        Ok(value)
    }

    fn or_expr(&mut self) -> Result<Expr, String> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::Bin {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, String> {
        let mut lhs = self.not_expr()?;
        while self.eat(&Tok::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::Bin {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, String> {
        if self.eat(&Tok::Not) {
            let operand = self.not_expr()?;
            return Ok(Expr::Un {
                op: UnOp::Not,
                operand: Box::new(operand),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, String> {
        let lhs = self.arith()?;
        let op = match self.peek() {
            Tok::EqEq => Some(BinOp::Eq),
            Tok::NotEq => Some(BinOp::NotEq),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            Tok::In => Some(BinOp::In),
            Tok::Not if *self.peek2() == Tok::In => Some(BinOp::NotIn),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            if op == BinOp::NotIn {
                self.bump(); // the `in`
            }
            let rhs = self.arith()?;
            return Ok(Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn arith(&mut self) -> Result<Expr, String> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.term()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, String> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::DoubleSlash => BinOp::FloorDiv,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.factor()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, String> {
        if self.eat(&Tok::Minus) {
            let operand = self.factor()?;
            return Ok(Expr::Un {
                op: UnOp::Neg,
                operand: Box::new(operand),
            });
        }
        if self.eat(&Tok::Plus) {
            return self.factor();
        }
        self.power()
    }

    fn power(&mut self) -> Result<Expr, String> {
        let base = self.postfix()?;
        if self.eat(&Tok::DoubleStar) {
            // Right-associative.
            let exp = self.factor()?;
            return Ok(Expr::Bin {
                op: BinOp::Pow,
                lhs: Box::new(base),
                rhs: Box::new(exp),
            });
        }
        Ok(base)
    }

    fn postfix(&mut self) -> Result<Expr, String> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Tok::LParen => {
                    // Only names are callable: `f(...)`.
                    let func = match &e {
                        Expr::Name(n) => n.clone(),
                        _ => {
                            return Err(format!(
                                "line {}: only named functions are callable",
                                self.line()
                            ))
                        }
                    };
                    self.bump();
                    let (args, kwargs) = self.call_args()?;
                    e = Expr::Call { func, args, kwargs };
                }
                Tok::LBracket => {
                    self.bump();
                    // Slice or index.
                    let lo = if self.check(&Tok::Colon) {
                        None
                    } else {
                        Some(Box::new(self.expr()?))
                    };
                    if self.eat(&Tok::Colon) {
                        let hi = if self.check(&Tok::RBracket) {
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect(&Tok::RBracket, "slice")?;
                        e = Expr::Slice {
                            base: Box::new(e),
                            lo,
                            hi,
                        };
                    } else {
                        self.expect(&Tok::RBracket, "index")?;
                        let index =
                            lo.ok_or_else(|| format!("line {}: empty index", self.line()))?;
                        e = Expr::Index {
                            base: Box::new(e),
                            index,
                        };
                    }
                }
                Tok::Dot => {
                    self.bump();
                    let method = self.name("method call")?;
                    self.expect(&Tok::LParen, "method call")?;
                    let (args, kwargs) = self.call_args()?;
                    if !kwargs.is_empty() {
                        return Err(format!(
                            "line {}: method calls do not take keyword arguments",
                            self.line()
                        ));
                    }
                    e = Expr::MethodCall {
                        recv: Box::new(e),
                        method,
                        args,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn call_args(&mut self) -> Result<ParsedArgs, String> {
        let mut args = Vec::new();
        let mut kwargs: Vec<(String, Expr)> = Vec::new();
        if !self.check(&Tok::RParen) {
            loop {
                // `name=expr` is a kwarg; plain expr is positional.
                if let (Tok::Name(n), Tok::Eq) = (self.peek(), self.peek2()) {
                    let key = n.clone();
                    self.bump();
                    self.bump();
                    if kwargs.iter().any(|(k, _)| *k == key) {
                        return Err(format!(
                            "line {}: duplicate keyword argument '{key}'",
                            self.line()
                        ));
                    }
                    kwargs.push((key, self.expr()?));
                } else {
                    if !kwargs.is_empty() {
                        return Err(format!(
                            "line {}: positional argument after keyword argument",
                            self.line()
                        ));
                    }
                    args.push(self.expr()?);
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "call arguments")?;
        Ok((args, kwargs))
    }

    fn atom(&mut self) -> Result<Expr, String> {
        match self.bump() {
            Tok::NoneKw => Ok(Expr::NoneLit),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Int(i) => Ok(Expr::Int(i)),
            Tok::Float(f) => Ok(Expr::Float(f)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Name(n) => Ok(Expr::Name(n)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen, "parenthesized expression")?;
                Ok(e)
            }
            Tok::LBracket => {
                let mut items = Vec::new();
                if !self.check(&Tok::RBracket) {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.check(&Tok::RBracket) {
                            break; // trailing comma
                        }
                    }
                }
                self.expect(&Tok::RBracket, "list literal")?;
                Ok(Expr::List(items))
            }
            Tok::LBrace => {
                let mut pairs = Vec::new();
                if !self.check(&Tok::RBrace) {
                    loop {
                        let key = self.expr()?;
                        self.expect(&Tok::Colon, "dict literal")?;
                        let value = self.expr()?;
                        pairs.push((key, value));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                        if self.check(&Tok::RBrace) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBrace, "dict literal")?;
                Ok(Expr::Dict(pairs))
            }
            other => Err(format!("line {}: unexpected {other}", self.line())),
        }
    }
}

/// Parsed call arguments: positional expressions plus keyword pairs.
type ParsedArgs = (Vec<Expr>, Vec<(String, Expr)>);

fn to_target(e: Expr, line: usize) -> Result<AssignTarget, String> {
    match e {
        Expr::Name(n) => Ok(AssignTarget::Name(n)),
        Expr::Index { base, index } => Ok(AssignTarget::Index {
            base: *base,
            index: *index,
        }),
        _ => Err(format!("line {line}: invalid assignment target")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Module {
        parse(lex(src).unwrap()).unwrap()
    }

    fn parse_err(src: &str) -> String {
        match lex(src) {
            Ok(toks) => parse(toks).unwrap_err(),
            Err(e) => e,
        }
    }

    #[test]
    fn parses_def_with_defaults() {
        let m = parse_src("def f(a, b=2):\n    return a + b\n");
        match &m.stmts[0] {
            Stmt::Def { name, params, body } => {
                assert_eq!(name, "f");
                assert_eq!(params.len(), 2);
                assert!(params[0].default.is_none());
                assert_eq!(params[1].default, Some(Expr::Int(2)));
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected def, got {other:?}"),
        }
    }

    #[test]
    fn elif_desugars_to_nested_if() {
        let m = parse_src(
            "def f(x):\n    if x == 1:\n        return 'a'\n    elif x == 2:\n        return 'b'\n    else:\n        return 'c'\n",
        );
        let Stmt::Def { body, .. } = &m.stmts[0] else {
            panic!()
        };
        let Stmt::If { orelse, .. } = &body[0] else {
            panic!()
        };
        assert_eq!(orelse.len(), 1);
        assert!(matches!(&orelse[0], Stmt::If { .. }));
    }

    #[test]
    fn operator_precedence() {
        let m = parse_src("x = 1 + 2 * 3\n");
        let Stmt::Assign { value, .. } = &m.stmts[0] else {
            panic!()
        };
        // Should parse as 1 + (2 * 3).
        let Expr::Bin {
            op: BinOp::Add,
            rhs,
            ..
        } = value
        else {
            panic!("{value:?}")
        };
        assert!(matches!(**rhs, Expr::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn power_is_right_associative_and_binds_tighter() {
        let m = parse_src("x = -2 ** 2\n");
        let Stmt::Assign { value, .. } = &m.stmts[0] else {
            panic!()
        };
        // Python: -(2 ** 2).
        assert!(matches!(value, Expr::Un { op: UnOp::Neg, .. }));
    }

    #[test]
    fn comparison_and_bool_ops() {
        let m = parse_src("x = a < b and c or not d\n");
        let Stmt::Assign { value, .. } = &m.stmts[0] else {
            panic!()
        };
        assert!(matches!(value, Expr::Bin { op: BinOp::Or, .. }));
    }

    #[test]
    fn membership_operators() {
        let m = parse_src("x = 1 in xs\ny = 2 not in xs\n");
        let Stmt::Assign { value, .. } = &m.stmts[0] else {
            panic!()
        };
        assert!(matches!(value, Expr::Bin { op: BinOp::In, .. }));
        let Stmt::Assign { value, .. } = &m.stmts[1] else {
            panic!()
        };
        assert!(matches!(
            value,
            Expr::Bin {
                op: BinOp::NotIn,
                ..
            }
        ));
    }

    #[test]
    fn calls_with_kwargs() {
        let m = parse_src("r = f(1, 2, mode='fast')\n");
        let Stmt::Assign { value, .. } = &m.stmts[0] else {
            panic!()
        };
        let Expr::Call { func, args, kwargs } = value else {
            panic!()
        };
        assert_eq!(func, "f");
        assert_eq!(args.len(), 2);
        assert_eq!(kwargs[0].0, "mode");
    }

    #[test]
    fn method_calls_chain() {
        let m = parse_src("s = 'a b'.split(' ').pop()\n");
        let Stmt::Assign { value, .. } = &m.stmts[0] else {
            panic!()
        };
        let Expr::MethodCall { method, recv, .. } = value else {
            panic!()
        };
        assert_eq!(method, "pop");
        assert!(matches!(**recv, Expr::MethodCall { .. }));
    }

    #[test]
    fn index_and_slice() {
        let m = parse_src("a = xs[0]\nb = xs[1:3]\nc = xs[:2]\nd = xs[2:]\n");
        assert!(matches!(
            &m.stmts[0],
            Stmt::Assign {
                value: Expr::Index { .. },
                ..
            }
        ));
        assert!(matches!(
            &m.stmts[1],
            Stmt::Assign {
                value: Expr::Slice { .. },
                ..
            }
        ));
    }

    #[test]
    fn index_assignment() {
        let m = parse_src("d['k'] = 5\n");
        assert!(matches!(
            &m.stmts[0],
            Stmt::Assign {
                target: AssignTarget::Index { .. },
                ..
            }
        ));
    }

    #[test]
    fn augmented_assignment() {
        let m = parse_src("x += 1\n");
        assert!(matches!(
            &m.stmts[0],
            Stmt::AugAssign { op: BinOp::Add, .. }
        ));
    }

    #[test]
    fn list_and_dict_literals() {
        let m = parse_src("x = [1, 2, 3]\ny = {'a': 1, 'b': 2}\nz = []\nw = {}\n");
        assert!(matches!(&m.stmts[0], Stmt::Assign { value: Expr::List(v), .. } if v.len() == 3));
        assert!(matches!(&m.stmts[1], Stmt::Assign { value: Expr::Dict(p), .. } if p.len() == 2));
    }

    #[test]
    fn ternary_expression() {
        let m = parse_src("x = 'big' if n > 3 else 'small'\n");
        assert!(matches!(
            &m.stmts[0],
            Stmt::Assign {
                value: Expr::IfExp { .. },
                ..
            }
        ));
    }

    #[test]
    fn loops_and_control() {
        let m = parse_src(
            "def f(xs):\n    total = 0\n    for x in xs:\n        if x < 0:\n            continue\n        total += x\n    while total > 100:\n        total -= 10\n        break\n    return total\n",
        );
        let Stmt::Def { body, .. } = &m.stmts[0] else {
            panic!()
        };
        assert!(matches!(body[1], Stmt::For { .. }));
        assert!(matches!(body[2], Stmt::While { .. }));
    }

    #[test]
    fn raise_statement() {
        let m = parse_src("raise 'boom'\n");
        assert!(matches!(&m.stmts[0], Stmt::Raise(Expr::Str(s)) if s == "boom"));
    }

    #[test]
    fn error_cases() {
        assert!(parse_err("def f(:\n    pass\n").contains("expected"));
        assert!(parse_err("def f(a, a):\n    pass\n").contains("duplicate parameter"));
        assert!(parse_err("def f(a=1, b):\n    pass\n").contains("non-default"));
        assert!(parse_err("x = f(a=1, 2)\n").contains("positional argument after"));
        assert!(parse_err("x = f(a=1, a=2)\n").contains("duplicate keyword"));
        assert!(parse_err("1 + = 2\n").contains("unexpected"));
        assert!(parse_err("(1 + 2) = 3\n").contains("invalid assignment target"));
        assert!(parse_err("if 1:\n    pass\nelse:\n").contains("else"));
        assert!(
            parse_err("x = xs[]\n").contains("empty index")
                || parse_err("x = xs[]\n").contains("unexpected")
        );
    }

    #[test]
    fn empty_block_is_error() {
        assert!(parse_err("def f():\nx = 1\n").contains("expected"));
    }

    #[test]
    fn trailing_commas_allowed_in_literals() {
        let m = parse_src("x = [1, 2,]\ny = {'a': 1,}\n");
        assert!(matches!(&m.stmts[0], Stmt::Assign { value: Expr::List(v), .. } if v.len() == 2));
    }

    #[test]
    fn multiline_call() {
        let m = parse_src("x = f(1,\n      2,\n      3)\n");
        let Stmt::Assign {
            value: Expr::Call { args, .. },
            ..
        } = &m.stmts[0]
        else {
            panic!()
        };
        assert_eq!(args.len(), 3);
    }
}
