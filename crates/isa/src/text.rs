//! A small text format for structured programs.
//!
//! The `rtpf` CLI reads task descriptions in this format, making the
//! toolchain usable without writing Rust. The grammar mirrors the
//! [`Shape`] AST:
//!
//! ```text
//! # a compress-like task
//! program compress-mini
//! code 30
//! loop 20 {
//!     code 10
//!     if 2 { code 16 } else { code 8 }
//!     if 2 { code 12 }
//!     switch 1 { arm { code 4 } arm { code 6 } }
//! }
//! code 14
//! ```
//!
//! * `code N` — `N` straight-line instructions;
//! * `loop B { … }` — a counted loop with bound `B`;
//! * `if C { … } [else { … }]` — a conditional with `C` condition
//!   instructions before the branch;
//! * `switch C { arm { … } … }` — a multi-way branch;
//! * `#` starts a line comment; whitespace is free-form.
//!
//! Blocks nest at most [`MAX_NESTING`] deep.
//!
//! [`parse`] produces a [`Shape`] (plus the program name), and
//! [`write()`] renders a `Shape` back; the two round-trip.

use std::error::Error;
use std::fmt;

use crate::shape::Shape;

/// Parse error with 1-based line information.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseShapeError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseShapeError {}

/// Deepest `{ … }` nesting [`parse`] accepts. The parser recurses once per
/// level, so unbounded input would overflow the stack; VIVU's context
/// budget already refuses loop nests far shallower than this.
pub const MAX_NESTING: usize = 256;

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Word(String),
    Number(u32),
    LBrace,
    RBrace,
}

struct Lexer {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Lexer {
    fn new(src: &str) -> Result<Self, ParseShapeError> {
        let mut toks = Vec::new();
        for (ln, line) in src.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("");
            let mut chars = line.chars().peekable();
            let lineno = ln + 1;
            while let Some(&c) = chars.peek() {
                match c {
                    c if c.is_whitespace() => {
                        chars.next();
                    }
                    '{' => {
                        chars.next();
                        toks.push((lineno, Tok::LBrace));
                    }
                    '}' => {
                        chars.next();
                        toks.push((lineno, Tok::RBrace));
                    }
                    c if c.is_ascii_digit() => {
                        let mut n: u64 = 0;
                        while let Some(&d) = chars.peek() {
                            if let Some(v) = d.to_digit(10) {
                                n = n * 10 + u64::from(v);
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        if n > u64::from(u32::MAX) {
                            return Err(ParseShapeError {
                                line: lineno,
                                message: format!("number {n} out of range"),
                            });
                        }
                        toks.push((lineno, Tok::Number(n as u32)));
                    }
                    c if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' => {
                        let mut w = String::new();
                        while let Some(&d) = chars.peek() {
                            if d.is_alphanumeric() || d == '_' || d == '-' || d == '.' {
                                w.push(d);
                                chars.next();
                            } else {
                                break;
                            }
                        }
                        toks.push((lineno, Tok::Word(w)));
                    }
                    other => {
                        return Err(ParseShapeError {
                            line: lineno,
                            message: format!("unexpected character {other:?}"),
                        })
                    }
                }
            }
        }
        Ok(Lexer { toks, pos: 0 })
    }

    fn peek(&self) -> Option<&(usize, Tok)> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<(usize, Tok)> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |&(l, _)| l)
    }

    fn expect_number(&mut self, what: &str) -> Result<u32, ParseShapeError> {
        match self.next() {
            Some((_, Tok::Number(n))) => Ok(n),
            other => Err(ParseShapeError {
                line: other.as_ref().map_or(self.line(), |&(l, _)| l),
                message: format!("expected {what} (a number), found {other:?}"),
            }),
        }
    }

    /// Consumes a `{`, returning its line.
    fn expect_lbrace(&mut self) -> Result<usize, ParseShapeError> {
        match self.next() {
            Some((line, Tok::LBrace)) => Ok(line),
            other => Err(ParseShapeError {
                line: other.as_ref().map_or(self.line(), |&(l, _)| l),
                message: format!("expected '{{', found {other:?}"),
            }),
        }
    }
}

/// Parses a program description, returning its name and shape.
///
/// # Errors
///
/// Returns a [`ParseShapeError`] with the offending line on malformed
/// input.
pub fn parse(src: &str) -> Result<(String, Shape), ParseShapeError> {
    let mut lx = Lexer::new(src)?;
    // Optional header: `program NAME`.
    let name = match lx.peek() {
        Some((_, Tok::Word(w))) if w == "program" => {
            lx.next();
            match lx.next() {
                Some((_, Tok::Word(n))) => n,
                other => {
                    return Err(ParseShapeError {
                        line: other.as_ref().map_or(lx.line(), |&(l, _)| l),
                        message: "expected a program name after 'program'".into(),
                    })
                }
            }
        }
        _ => "unnamed".to_string(),
    };
    let body = parse_seq(&mut lx, 0)?;
    if let Some((line, tok)) = lx.next() {
        return Err(ParseShapeError {
            line,
            message: format!("trailing input: {tok:?}"),
        });
    }
    Ok((name, body))
}

/// Parses a `{ … }` block that sits `depth` blocks deep.
fn parse_block(lx: &mut Lexer, depth: usize) -> Result<Shape, ParseShapeError> {
    let line = lx.expect_lbrace()?;
    if depth > MAX_NESTING {
        return Err(ParseShapeError {
            line,
            message: format!("nesting deeper than {MAX_NESTING}"),
        });
    }
    parse_seq(lx, depth)
}

/// Parses statements until EOF (`depth = 0`) or the brace closing the
/// enclosing block.
fn parse_seq(lx: &mut Lexer, depth: usize) -> Result<Shape, ParseShapeError> {
    let in_block = depth > 0;
    let mut items = Vec::new();
    loop {
        match lx.peek() {
            None => {
                if in_block {
                    return Err(ParseShapeError {
                        line: lx.line(),
                        message: "unclosed '{'".into(),
                    });
                }
                break;
            }
            Some(&(_, Tok::RBrace)) => {
                if in_block {
                    lx.next();
                    break;
                }
                return Err(ParseShapeError {
                    line: lx.line(),
                    message: "unmatched '}'".into(),
                });
            }
            Some(&(line, ref tok)) => {
                let word = match tok {
                    Tok::Word(w) => w.clone(),
                    other => {
                        return Err(ParseShapeError {
                            line,
                            message: format!("expected a statement, found {other:?}"),
                        })
                    }
                };
                lx.next();
                items.push(parse_stmt(lx, &word, line, depth)?);
            }
        }
    }
    Ok(match items.len() {
        1 => items.pop().expect("len checked"),
        _ => Shape::seq(items),
    })
}

fn parse_stmt(
    lx: &mut Lexer,
    word: &str,
    line: usize,
    depth: usize,
) -> Result<Shape, ParseShapeError> {
    match word {
        "code" => Ok(Shape::code(lx.expect_number("instruction count")?)),
        "loop" => {
            let bound = lx.expect_number("loop bound")?;
            if bound == 0 {
                return Err(ParseShapeError {
                    line,
                    message: "loop bound must be positive".into(),
                });
            }
            let body = parse_block(lx, depth + 1)?;
            Ok(Shape::loop_(bound, body))
        }
        "if" => {
            let cond = lx.expect_number("condition size")?;
            let then_arm = parse_block(lx, depth + 1)?;
            match lx.peek() {
                Some((_, Tok::Word(w))) if w == "else" => {
                    lx.next();
                    let else_arm = parse_block(lx, depth + 1)?;
                    Ok(Shape::if_else(cond, then_arm, else_arm))
                }
                _ => Ok(Shape::if_then(cond, then_arm)),
            }
        }
        "switch" => {
            let cond = lx.expect_number("scrutinee size")?;
            lx.expect_lbrace()?;
            let mut arms = Vec::new();
            loop {
                match lx.next() {
                    Some((_, Tok::Word(w))) if w == "arm" => {
                        arms.push(parse_block(lx, depth + 1)?);
                    }
                    Some((_, Tok::RBrace)) => break,
                    other => {
                        return Err(ParseShapeError {
                            line: other.as_ref().map_or(line, |&(l, _)| l),
                            message: format!("expected 'arm' or '}}', found {other:?}"),
                        })
                    }
                }
            }
            if arms.is_empty() {
                return Err(ParseShapeError {
                    line,
                    message: "switch needs at least one arm".into(),
                });
            }
            Ok(Shape::switch(cond, arms))
        }
        other => Err(ParseShapeError {
            line,
            message: format!("unknown statement {other:?}"),
        }),
    }
}

/// Renders a shape in the text format (inverse of [`parse`]).
pub fn write(name: &str, shape: &Shape) -> String {
    let mut out = format!("program {name}\n");
    write_shape(shape, 0, &mut out);
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn write_shape(s: &Shape, depth: usize, out: &mut String) {
    match s {
        Shape::Code(n) => {
            indent(depth, out);
            out.push_str(&format!("code {n}\n"));
        }
        Shape::Seq(items) => {
            for i in items {
                write_shape(i, depth, out);
            }
        }
        Shape::IfElse {
            cond,
            then_arm,
            else_arm,
        } => {
            indent(depth, out);
            out.push_str(&format!("if {cond} {{\n"));
            write_shape(then_arm, depth + 1, out);
            indent(depth, out);
            match else_arm {
                Some(e) => {
                    out.push_str("} else {\n");
                    write_shape(e, depth + 1, out);
                    indent(depth, out);
                    out.push_str("}\n");
                }
                None => out.push_str("}\n"),
            }
        }
        Shape::Loop { bound, body } => {
            indent(depth, out);
            out.push_str(&format!("loop {bound} {{\n"));
            write_shape(body, depth + 1, out);
            indent(depth, out);
            out.push_str("}\n");
        }
        Shape::Switch { cond, arms } => {
            indent(depth, out);
            out.push_str(&format!("switch {cond} {{\n"));
            for arm in arms {
                indent(depth + 1, out);
                out.push_str("arm {\n");
                write_shape(arm, depth + 2, out);
                indent(depth + 1, out);
                out.push_str("}\n");
            }
            indent(depth, out);
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
# a compress-like task
program compress-mini
code 30
loop 20 {
    code 10
    if 2 { code 16 } else { code 8 }
    if 2 { code 12 }
    switch 1 { arm { code 4 } arm { code 6 } }
}
code 14
";

    #[test]
    fn parses_the_sample() {
        let (name, shape) = parse(SAMPLE).expect("parses");
        assert_eq!(name, "compress-mini");
        let p = shape.compile(&name);
        assert!(p.validate().is_ok());
        assert!(p.instr_count() > 80);
    }

    #[test]
    fn roundtrips() {
        let (name, shape) = parse(SAMPLE).expect("parses");
        let text = write(&name, &shape);
        let (name2, shape2) = parse(&text).expect("re-parses");
        assert_eq!(name, name2);
        assert_eq!(shape, shape2);
    }

    #[test]
    fn header_is_optional() {
        let (name, shape) = parse("code 5").expect("parses");
        assert_eq!(name, "unnamed");
        assert_eq!(shape, Shape::code(5));
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse("code 5\nloop 0 { code 1 }").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("positive"));
    }

    #[test]
    fn rejects_unclosed_brace() {
        let err = parse("loop 3 { code 1").unwrap_err();
        assert!(err.message.contains("unclosed"));
    }

    #[test]
    fn rejects_unknown_statement() {
        let err = parse("quantum 3").unwrap_err();
        assert!(err.message.contains("unknown statement"));
    }

    #[test]
    fn rejects_empty_switch() {
        let err = parse("switch 1 { }").unwrap_err();
        assert!(err.message.contains("at least one arm"));
    }

    #[test]
    fn rejects_garbage_characters() {
        let err = parse("code 5 $").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    /// `depth` nested loops, the innermost opening on line `depth`.
    fn nested_loops(depth: usize) -> String {
        "loop 2 {\n".repeat(depth) + "code 1\n" + &"}\n".repeat(depth)
    }

    #[test]
    fn nesting_is_capped() {
        parse(&nested_loops(MAX_NESTING)).expect("the cap itself parses");
        let err = parse(&nested_loops(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err.line, MAX_NESTING + 1);
        assert!(err.message.contains("nesting deeper than"), "{err}");
        // Far past the cap: an error, not a stack overflow.
        let err = parse(&nested_loops(100_000)).unwrap_err();
        assert_eq!(err.line, MAX_NESTING + 1);
    }

    #[test]
    fn comments_and_whitespace_are_free() {
        let (_, a) = parse("code 3 # tail comment\n\n\n  loop 2 { code 1 }").expect("parses");
        let (_, b) = parse("code 3\nloop 2 { code 1 }").expect("parses");
        assert_eq!(a, b);
    }

    #[test]
    fn writes_every_construct() {
        let s = Shape::seq([
            Shape::code(1),
            Shape::if_then(1, Shape::code(2)),
            Shape::switch(2, [Shape::code(3), Shape::code(4)]),
            Shape::loop_(9, Shape::if_else(0, Shape::code(5), Shape::code(6))),
        ]);
        let text = write("all", &s);
        let (_, back) = parse(&text).expect("parses");
        assert_eq!(s, back);
    }
}
