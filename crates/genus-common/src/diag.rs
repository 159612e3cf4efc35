//! Diagnostics: structured compiler errors, warnings, and notes.
//!
//! Every diagnostic carries a stable code from the central registry
//! ([`crate::codes`]), a primary span, optional labeled secondary spans
//! (notes), and optional help text. Three renderers share the structure:
//!
//! * **short** — the classic one-line `file:line:col: error[E0201]: ...`
//!   form, used by golden tests and the facade's string errors,
//! * **human** — rustc-style source snippets with caret underlines and
//!   multi-span labels,
//! * **json** — one machine-readable object per diagnostic.

use crate::codes;
use crate::json;
use crate::source::{SourceMap, Span};
use std::fmt;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note, usually attached to an error.
    Note,
    /// A problem that does not stop compilation.
    Warning,
    /// A problem that fails compilation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// How diagnostics are rendered to the user (`--error-format=<...>`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ErrorFormat {
    /// Source snippets with caret underlines and labeled spans.
    Human,
    /// One line per diagnostic: `file:line:col: severity[CODE]: message`.
    #[default]
    Short,
    /// One JSON object per diagnostic, one per line.
    Json,
}

impl ErrorFormat {
    /// Parses a format name as used by `--error-format=<name>`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<ErrorFormat> {
        match name {
            "human" => Some(ErrorFormat::Human),
            "short" => Some(ErrorFormat::Short),
            "json" => Some(ErrorFormat::Json),
            _ => None,
        }
    }

    /// The canonical CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorFormat::Human => "human",
            ErrorFormat::Short => "short",
            ErrorFormat::Json => "json",
        }
    }
}

/// One reported problem, with a stable code, location, and optional
/// labeled secondary notes and help text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity of the primary message.
    pub severity: Severity,
    /// Stable registered code (`E0xxx` compile, `W0xxx` warning, `R0xxx`
    /// runtime). See [`crate::codes::REGISTRY`].
    pub code: &'static str,
    /// Primary location.
    pub span: Span,
    /// Primary message, lowercase, no trailing punctuation.
    pub message: String,
    /// Secondary labeled spans. Dummy-span notes render as plain notes.
    pub notes: Vec<(Span, String)>,
    /// Optional help text suggesting a fix.
    pub help: Option<String>,
}

impl Diagnostic {
    fn new(severity: Severity, code: &'static str, span: Span, message: String) -> Self {
        debug_assert!(
            codes::is_registered(code),
            "unregistered diagnostic code `{code}`"
        );
        Diagnostic {
            severity,
            code,
            span,
            message,
            notes: Vec::new(),
            help: None,
        }
    }

    /// Creates an error diagnostic with a registered code.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Error, code, span, message.into())
    }

    /// Creates a warning diagnostic with a registered code.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warning, code, span, message.into())
    }

    /// Attaches a labeled secondary span and returns `self` for chaining.
    pub fn with_note(mut self, span: Span, message: impl Into<String>) -> Self {
        self.notes.push((span, message.into()));
        self
    }

    /// Attaches help text suggesting a fix.
    pub fn with_help(mut self, message: impl Into<String>) -> Self {
        self.help = Some(message.into());
        self
    }

    /// Attaches one note per link of a resolution goal chain
    /// (already-rendered goal names, outermost first). Long chains — e.g.
    /// a divergent recursive `use` unwinding a full depth budget — keep
    /// the first and last few links and elide the middle.
    pub fn with_goal_chain(mut self, span: Span, links: impl IntoIterator<Item = String>) -> Self {
        const HEAD: usize = 4;
        const TAIL: usize = 2;
        let links: Vec<String> = links.into_iter().collect();
        let n = links.len();
        for (i, link) in links.into_iter().enumerate() {
            if n > HEAD + TAIL + 1 && i >= HEAD && i < n - TAIL {
                if i == HEAD {
                    self.notes.push((
                        span,
                        format!("... {} subgoal(s) elided ...", n - HEAD - TAIL),
                    ));
                }
                continue;
            }
            self.notes
                .push((span, format!("required for subgoal `{link}`")));
        }
        self
    }

    /// Renders in the compact one-line mode (one line per message).
    pub fn render(&self, sm: &SourceMap) -> String {
        let mut out = format!(
            "{}: {}[{}]: {}",
            sm.describe(self.span),
            self.severity,
            self.code,
            self.message
        );
        for (span, note) in &self.notes {
            out.push_str(&format!("\n  {}: note: {}", sm.describe(*span), note));
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("\n  help: {help}"));
        }
        out
    }

    /// Renders a rustc-style snippet: header line, `-->` location, the
    /// source line with a caret underline, one labeled dash-underlined
    /// block per secondary span, then `=`-prefixed notes and help.
    pub fn render_human(&self, sm: &SourceMap) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        let width = gutter_width(sm, self);
        snippet_block(&mut out, sm, self.span, width, '^', "");
        for (span, label) in &self.notes {
            if span.is_dummy() || *span == self.span {
                // A note at the primary span (e.g. a goal-chain link) adds
                // no new location — render it compactly instead of
                // repeating the same snippet.
                out.push_str(&format!("\n{:width$} = note: {label}", ""));
            } else {
                snippet_block(&mut out, sm, *span, width, '-', label);
            }
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("\n{:width$} = help: {help}", ""));
        }
        out
    }

    /// Renders one machine-readable JSON object on a single line.
    ///
    /// Shape: `{"code", "severity", "message", "spans": [{"file", "line",
    /// "col", "end_line", "end_col", "primary", "label"}], "notes",
    /// "help"}`. Dummy spans are omitted from `spans`; dummy-span notes
    /// appear in `notes` instead.
    pub fn render_json(&self, sm: &SourceMap) -> String {
        let mut out = String::from("{\"code\":");
        out.push_str(&json::escape(self.code));
        out.push_str(",\"severity\":");
        out.push_str(&json::escape(&self.severity.to_string()));
        out.push_str(",\"message\":");
        out.push_str(&json::escape(&self.message));
        out.push_str(",\"spans\":[");
        let mut first = true;
        let mut span_obj = |out: &mut String, span: Span, primary: bool, label: &str| {
            if span.is_dummy() {
                return;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let f = sm.file(span.file);
            let (line, col) = f.line_col(span.lo);
            let (end_line, end_col) = f.line_col(span.hi);
            out.push_str("{\"file\":");
            out.push_str(&json::escape(&f.name));
            out.push_str(&format!(
                ",\"line\":{line},\"col\":{col},\"end_line\":{end_line},\"end_col\":{end_col},\"primary\":{primary},\"label\":"
            ));
            out.push_str(&json::escape(label));
            out.push('}');
        };
        span_obj(&mut out, self.span, true, "");
        for (span, label) in &self.notes {
            span_obj(&mut out, *span, false, label);
        }
        out.push_str("],\"notes\":[");
        let mut first = true;
        for (span, note) in &self.notes {
            if span.is_dummy() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&json::escape(note));
            }
        }
        out.push_str("],\"help\":");
        match &self.help {
            Some(h) => out.push_str(&json::escape(h)),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Renders in the given format.
    pub fn render_with(&self, sm: &SourceMap, format: ErrorFormat) -> String {
        match format {
            ErrorFormat::Human => self.render_human(sm),
            ErrorFormat::Short => self.render(sm),
            ErrorFormat::Json => self.render_json(sm),
        }
    }
}

/// Width of the line-number gutter needed by every span of `d`.
fn gutter_width(sm: &SourceMap, d: &Diagnostic) -> usize {
    let mut max_line = 1usize;
    let mut see = |span: Span| {
        if !span.is_dummy() {
            let (line, _) = sm.file(span.file).line_col(span.lo);
            max_line = max_line.max(line);
        }
    };
    see(d.span);
    for (span, _) in &d.notes {
        see(*span);
    }
    max_line.to_string().len()
}

/// Appends one snippet block for `span`: the `-->` location, the source
/// line, and an underline of `mark` characters followed by `label`.
fn snippet_block(
    out: &mut String,
    sm: &SourceMap,
    span: Span,
    width: usize,
    mark: char,
    label: &str,
) {
    if span.is_dummy() {
        if !label.is_empty() {
            out.push_str(&format!("\n{:width$} = note: {label}", ""));
        }
        return;
    }
    let f = sm.file(span.file);
    let (line, col) = f.line_col(span.lo);
    let text = f.line_text(line);
    let line_start = (span.lo as usize) - (col - 1);
    // Columns are byte offsets; pad and underline in characters so
    // multi-byte source still lines up.
    let prefix = &f.src[line_start..span.lo as usize];
    let pad = prefix.chars().count();
    let line_end = line_start + text.len();
    let under_end = (span.hi as usize).min(line_end).max(span.lo as usize);
    let underline = f.src[span.lo as usize..under_end].chars().count().max(1);
    out.push_str(&format!("\n{:width$}--> {}:{}:{}", "", f.name, line, col));
    out.push_str(&format!("\n{:width$} |", ""));
    out.push_str(&format!("\n{line:width$} | {text}"));
    out.push_str(&format!(
        "\n{:width$} | {:pad$}{}",
        "",
        "",
        mark.to_string().repeat(underline)
    ));
    if !label.is_empty() {
        out.push(' ');
        out.push_str(label);
    }
}

/// Accumulates diagnostics across compiler phases.
#[derive(Debug, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records a pre-built diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Records an error with a registered code and a primary span.
    pub fn error(&mut self, code: &'static str, span: Span, message: impl Into<String>) {
        self.items.push(Diagnostic::error(code, span, message));
    }

    /// Records a warning with a registered code and a primary span.
    pub fn warning(&mut self, code: &'static str, span: Span, message: impl Into<String>) {
        self.items.push(Diagnostic::warning(code, span, message));
    }

    /// Whether any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// All recorded diagnostics in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.items.iter()
    }

    /// Sorts by (file, offset, code) and drops exact duplicates — same
    /// (code, span, message) — so multi-file error output is stable across
    /// runs regardless of emission order. Dummy spans sort last.
    pub fn normalize(&mut self) {
        self.items.sort_by(|a, b| {
            (a.span.file.0, a.span.lo, a.code, a.span.hi).cmp(&(
                b.span.file.0,
                b.span.lo,
                b.code,
                b.span.hi,
            ))
        });
        self.items
            .dedup_by(|a, b| a.code == b.code && a.span == b.span && a.message == b.message);
    }

    /// Normalizes, then renders every diagnostic in the compact one-line
    /// mode, one per line.
    pub fn render_all(&mut self, sm: &SourceMap) -> String {
        self.render_all_with(sm, ErrorFormat::Short)
    }

    /// Normalizes, then renders every diagnostic like [`render_diags`].
    pub fn render_all_with(&mut self, sm: &SourceMap, format: ErrorFormat) -> String {
        self.normalize();
        render_diags(&self.items, sm, format)
    }

    /// Normalizes, then moves all diagnostics out of the sink.
    pub fn take(&mut self) -> Vec<Diagnostic> {
        self.normalize();
        std::mem::take(&mut self.items)
    }

    /// Drops every diagnostic recorded after the first `len`, in raw
    /// insertion order (no normalization) — used to unwind speculative
    /// parses.
    pub fn truncate(&mut self, len: usize) {
        self.items.truncate(len);
    }

    /// Whether no diagnostics have been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total diagnostic count, at any severity.
    pub fn len(&self) -> usize {
        self.items.len()
    }
}

/// Renders every diagnostic in `diags` (errors and warnings alike) in
/// `format`, joined by newlines (for `Human`, by blank lines).
pub fn render_diags(diags: &[Diagnostic], sm: &SourceMap, format: ErrorFormat) -> String {
    let sep = if format == ErrorFormat::Human {
        "\n\n"
    } else {
        "\n"
    };
    diags
        .iter()
        .map(|d| d.render_with(sm, format))
        .collect::<Vec<_>>()
        .join(sep)
}

/// Renders only the error diagnostics in `diags`, in the compact one-line
/// mode, one per line.
pub fn render_errors_short(diags: &[Diagnostic], sm: &SourceMap) -> String {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.render(sm))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceMap;

    #[test]
    fn collects_and_counts() {
        let mut d = Diagnostics::new();
        assert!(d.is_empty());
        d.warning("W0001", Span::dummy(), "meh");
        assert!(!d.has_errors());
        assert_eq!(d.warning_count(), 1);
        d.error("E0501", Span::dummy(), "boom");
        assert!(d.has_errors());
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn renders_with_notes() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a.genus", "model M for Eq[T] {}");
        let d = Diagnostic::error("E0205", Span::new(f, 6, 7), "no such constraint")
            .with_note(Span::new(f, 12, 14), "referenced here")
            .with_help("declare the constraint first");
        let rendered = d.render(&sm);
        assert!(
            rendered.contains("a.genus:1:7: error[E0205]: no such constraint"),
            "{rendered}"
        );
        assert!(rendered.contains("note: referenced here"), "{rendered}");
        assert!(
            rendered.contains("help: declare the constraint first"),
            "{rendered}"
        );
    }

    #[test]
    fn renders_human_snippets() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a.genus", "model M for Eq[T] {}");
        let d = Diagnostic::error("E0205", Span::new(f, 6, 7), "no such constraint")
            .with_note(Span::new(f, 12, 14), "referenced here")
            .with_help("declare the constraint first");
        let rendered = d.render_human(&sm);
        assert!(
            rendered.starts_with("error[E0205]: no such constraint"),
            "{rendered}"
        );
        assert!(rendered.contains("--> a.genus:1:7"), "{rendered}");
        assert!(rendered.contains("1 | model M for Eq[T] {}"), "{rendered}");
        assert!(rendered.contains("|       ^\n"), "{rendered}");
        assert!(
            rendered.contains("|             -- referenced here"),
            "{rendered}"
        );
        assert!(
            rendered.contains("= help: declare the constraint first"),
            "{rendered}"
        );
    }

    #[test]
    fn renders_json_objects() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a.genus", "class C {}");
        let d = Diagnostic::error("E0201", Span::new(f, 6, 7), "duplicate type `C`")
            .with_note(Span::dummy(), "free-floating note");
        let line = d.render_json(&sm);
        let v = crate::json::parse(&line).expect("valid json");
        assert_eq!(v.get("code").unwrap().as_str(), Some("E0201"));
        assert_eq!(v.get("severity").unwrap().as_str(), Some("error"));
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("line").unwrap().as_num(), Some(1.0));
        assert_eq!(spans[0].get("col").unwrap().as_num(), Some(7.0));
        let notes = v.get("notes").unwrap().as_arr().unwrap();
        assert_eq!(notes[0].as_str(), Some("free-floating note"));
    }

    #[test]
    fn goal_chain_renders_each_link() {
        let d = Diagnostic::error("E0403", Span::dummy(), "recursion bound exceeded")
            .with_goal_chain(Span::dummy(), vec!["Cl[Box[int]]".into(), "Cl[int]".into()]);
        assert_eq!(d.notes.len(), 2);
        assert!(d.notes[0].1.contains("Cl[Box[int]]"));
        assert!(d.notes[1].1.contains("Cl[int]"));
    }

    #[test]
    fn goal_chain_elides_long_middles() {
        let links: Vec<String> = (0..20).map(|i| format!("G{i}")).collect();
        let d = Diagnostic::error("E0403", Span::dummy(), "recursion bound exceeded")
            .with_goal_chain(Span::dummy(), links);
        // 4 head + elision marker + 2 tail.
        assert_eq!(d.notes.len(), 7);
        assert!(d.notes[0].1.contains("G0"));
        assert!(d.notes[3].1.contains("G3"));
        assert!(d.notes[4].1.contains("elided"));
        assert!(d.notes[5].1.contains("G18"));
        assert!(d.notes[6].1.contains("G19"));
    }

    #[test]
    fn take_drains() {
        let mut d = Diagnostics::new();
        d.error("E0501", Span::dummy(), "x");
        let v = d.take();
        assert_eq!(v.len(), 1);
        assert!(d.is_empty());
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut sm = SourceMap::new();
        let fa = sm.add_file("a.genus", "aaaa\nbbbb");
        let fb = sm.add_file("b.genus", "cccc");
        let mut d = Diagnostics::new();
        d.error("E0502", Span::new(fb, 0, 1), "later file first");
        d.error("E0502", Span::new(fa, 5, 6), "line two");
        d.error("E0501", Span::new(fa, 0, 1), "first");
        d.error("E0501", Span::new(fa, 0, 1), "first"); // exact duplicate
        d.error("E0501", Span::dummy(), "no span");
        let v = d.take();
        assert_eq!(v.len(), 4, "{v:?}");
        assert_eq!(v[0].message, "first");
        assert_eq!(v[1].message, "line two");
        assert_eq!(v[2].message, "later file first");
        assert_eq!(v[3].message, "no span"); // dummy spans sort last
    }

    #[test]
    fn error_format_names_round_trip() {
        for f in [ErrorFormat::Human, ErrorFormat::Short, ErrorFormat::Json] {
            assert_eq!(ErrorFormat::from_name(f.name()), Some(f));
        }
        assert_eq!(ErrorFormat::from_name("xml"), None);
    }
}
