#![forbid(unsafe_code)]
//! Offline stand-in for `serde_derive`.
//!
//! The build environment has no crates.io access, so this proc-macro crate
//! derives the workspace's mini-serde `serde::Serialize` (JSON-value based)
//! without `syn`/`quote`: the item's token stream is parsed by hand and the
//! generated impl is emitted as a string.
//!
//! Supported shapes — exactly what the workspace uses:
//!
//! * structs with named fields (no generics), serialised as objects;
//! * `#[serde(transparent)]` tuple structs with one field, serialised as
//!   that field;
//! * enums whose variants carry no data, serialised as the variant name.
//!
//! Any other shape is a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the item a derive is attached to.
enum Item {
    /// `struct Name { field, ... }` — field names in declaration order.
    NamedStruct { name: String, fields: Vec<String> },
    /// `#[serde(transparent)] struct Name(T);`
    Transparent { name: String },
    /// `enum Name { V1, V2, ... }` — unit variants only.
    Enum { name: String, variants: Vec<String> },
}

/// Derives `serde::Serialize` (JSON-value based).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, value) = match parse_item(input) {
        Item::NamedStruct { name, fields } => {
            let entries: String = fields
                .iter()
                .map(|f| {
                    format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})),\n")
                })
                .collect();
            (
                name,
                format!("::serde::json::Value::Object(vec![\n{entries}])"),
            )
        }
        Item::Transparent { name } => (name, "::serde::Serialize::to_value(&self.0)".to_string()),
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => \"{v}\",\n"))
                .collect();
            let value = format!("::serde::json::Value::Str(match self {{\n{arms}}}.to_string())");
            (name, value)
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::json::Value {{\n{value}\n}}\n}}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Hand-rolled item parser. Panics (compile error) on unsupported shapes.
fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut transparent = false;

    // Leading attributes (doc comments arrive as `#[doc = ...]`).
    while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
            if attr_is_serde_transparent(g.stream()) {
                transparent = true;
            }
        }
        i += 2;
    }
    // Visibility: `pub` optionally followed by `(...)`.
    if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        i += 1;
        if matches!(
            &tokens.get(i),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            i += 1;
        }
    }
    let kind = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let name = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected item name, got {other:?}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic types are not supported (type {name})");
    }

    match kind.as_str() {
        "struct" => match &tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace && !transparent => {
                Item::NamedStruct {
                    name,
                    fields: parse_named_fields(g.stream()),
                }
            }
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis
                    && transparent
                    && count_tuple_fields(g.stream()) == 1 =>
            {
                Item::Transparent { name }
            }
            _ => panic!(
                "serde_derive shim: struct {name} must have named fields, or be \
                 #[serde(transparent)] with one unnamed field"
            ),
        },
        "enum" => match &tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_unit_variants(g.stream()),
            },
            other => panic!("serde_derive shim: expected enum body, got {other:?}"),
        },
        other => panic!("serde_derive shim: unsupported item kind {other:?}"),
    }
}

/// `true` when an attribute body is exactly `serde(... transparent ...)`.
fn attr_is_serde_transparent(stream: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match (tokens.first(), tokens.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g))) if id.to_string() == "serde" => g
            .stream()
            .into_iter()
            .any(|t| matches!(&t, TokenTree::Ident(i) if i.to_string() == "transparent")),
        _ => false,
    }
}

/// Field names of a named-struct body, in order.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Per-field attributes.
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        if i >= tokens.len() {
            break;
        }
        // Visibility.
        if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            i += 1;
            if matches!(
                &tokens.get(i),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
            ) {
                i += 1;
            }
        }
        match &tokens.get(i) {
            Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
            other => panic!("serde_derive shim: expected field name, got {other:?}"),
        }
        i += 1;
        assert!(
            matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ':'),
            "serde_derive shim: expected `:` after field name"
        );
        i += 1;
        // Skip the type: consume until a comma at angle-bracket depth zero.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// Number of fields in a tuple-struct body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut depth = 0i32;
    let mut count = usize::from(!tokens.is_empty());
    for (idx, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 && idx + 1 < tokens.len() => {
                count += 1;
            }
            _ => {}
        }
    }
    count
}

/// Variant names of an all-unit-variant enum body.
fn parse_unit_variants(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        if i >= tokens.len() {
            break;
        }
        match &tokens.get(i) {
            Some(TokenTree::Ident(id)) => variants.push(id.to_string()),
            other => panic!("serde_derive shim: expected variant name, got {other:?}"),
        }
        i += 1;
        // Explicit discriminants (`Variant = 0`): skip to the comma. The
        // serialised form stays the variant *name*, like upstream serde.
        if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            while i < tokens.len()
                && !matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',')
            {
                i += 1;
            }
        }
        match &tokens.get(i) {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(TokenTree::Group(_)) => {
                panic!("serde_derive shim: enum variants with fields are not supported")
            }
            other => panic!("serde_derive shim: unexpected token after variant: {other:?}"),
        }
    }
    variants
}
