//! `#[derive(Serialize, Deserialize)]` for the in-tree serde shim.
//!
//! Parses the item's token stream directly (no `syn`/`quote`; the
//! workspace builds offline with zero external crates) and emits the
//! shim's two codec methods: `write_json`, which writes the value into a
//! `serde::Writer`, and `read_json`, which reads it from a
//! `serde::Parser`. Supports what the workspace uses: plain structs with
//! named fields, and enums whose variants are unit-like or carry exactly
//! one unnamed field.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What we learned about the item the derive is attached to.
enum Item {
    Struct {
        name: String,
        fields: Vec<String>,
    },
    Enum {
        name: String,
        variants: Vec<(String, usize)>,
    },
}

/// Skips `#[...]` attribute pairs at the current position.
fn skip_attributes(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                match iter.peek() {
                    Some(TokenTree::Punct(p)) if p.as_char() == '!' => {
                        iter.next();
                    }
                    _ => {}
                }
                // The bracket group of the attribute.
                iter.next();
            }
            _ => return,
        }
    }
}

/// Skips a `pub` / `pub(...)` visibility marker.
fn skip_visibility(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    if let Some(TokenTree::Ident(id)) = iter.peek() {
        if id.to_string() == "pub" {
            iter.next();
            if let Some(TokenTree::Group(g)) = iter.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    iter.next();
                }
            }
        }
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut iter = input.into_iter().peekable();
    skip_attributes(&mut iter);
    skip_visibility(&mut iter);

    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive: expected item name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            panic!("derive shim does not support generic types (on `{name}`)");
        }
    }
    let body = loop {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(_) => continue, // e.g. `where` clauses (unused here)
            None => panic!("derive: `{name}` has no braced body"),
        }
    };

    match kind.as_str() {
        "struct" => Item::Struct {
            name,
            fields: parse_fields(body.stream()),
        },
        "enum" => Item::Enum {
            name,
            variants: parse_variants(body.stream()),
        },
        other => panic!("derive: cannot derive for `{other}` items"),
    }
}

/// Field names of a named-field struct body.
fn parse_fields(body: TokenStream) -> Vec<String> {
    let mut iter = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attributes(&mut iter);
        skip_visibility(&mut iter);
        let field = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => panic!("derive: expected field name, got {other:?}"),
            None => break,
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("derive: tuple structs unsupported (after `{field}`: {other:?})"),
        }
        fields.push(field);
        // Skip the type: everything until a top-level `,`. Generics like
        // `BTreeMap<K, V>` contain commas inside `<...>`, so track depth.
        let mut angle_depth = 0i32;
        for tok in iter.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    fields
}

/// `(variant name, field count)` pairs of an enum body.
fn parse_variants(body: TokenStream) -> Vec<(String, usize)> {
    let mut iter = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attributes(&mut iter);
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => panic!("derive: expected variant name, got {other:?}"),
            None => break,
        };
        let mut arity = 0usize;
        if let Some(TokenTree::Group(g)) = iter.peek() {
            match g.delimiter() {
                Delimiter::Parenthesis => {
                    // Count top-level comma-separated types.
                    let mut depth = 0i32;
                    let mut saw_any = false;
                    for tok in g.stream() {
                        saw_any = true;
                        match tok {
                            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => arity += 1,
                            _ => {}
                        }
                    }
                    if saw_any {
                        arity += 1;
                    }
                    iter.next();
                }
                Delimiter::Brace => panic!("derive shim: struct-like variant `{name}` unsupported"),
                _ => {}
            }
        }
        variants.push((name, arity));
        // Skip an optional `= discriminant` and the trailing comma.
        for tok in iter.by_ref() {
            if let TokenTree::Punct(p) = &tok {
                if p.as_char() == ',' {
                    break;
                }
            }
        }
    }
    variants
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let out = match parse_item(input) {
        Item::Struct { name, fields } => {
            let members: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "__w.key(\"{f}\");\n\
                         ::serde::Serialize::write_json(&self.{f}, __w);\n"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn write_json(&self, __w: &mut ::serde::Writer) {{\n\
                         __w.begin_object();\n\
                         {members}\
                         __w.end_object();\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|(v, arity)| match arity {
                    0 => format!("{name}::{v} => __w.str(\"{v}\"),\n"),
                    1 => format!(
                        "{name}::{v}(__f0) => {{\n\
                             __w.begin_object();\n\
                             __w.key(\"{v}\");\n\
                             ::serde::Serialize::write_json(__f0, __w);\n\
                             __w.end_object();\n\
                         }}\n"
                    ),
                    n => panic!("derive shim: variant {name}::{v} has {n} fields (max 1)"),
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn write_json(&self, __w: &mut ::serde::Writer) {{\n\
                         match self {{\n{arms}}}\n\
                     }}\n\
                 }}"
            )
        }
    };
    out.parse()
        .expect("derive(Serialize): generated code must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let out = match parse_item(input) {
        Item::Struct { name, fields } => {
            // One slot per field, filled by the key's first occurrence;
            // the struct literal then takes them in declaration order, so
            // the first missing or mis-shaped field is the one reported.
            let slots: String = (0..fields.len())
                .map(|i| format!("let mut __f{i} = None;\n"))
                .collect();
            let arms: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    format!("\"{f}\" if __f{i}.is_none() => __f{i} = Some(__p.value()?),\n")
                })
                .collect();
            let takes: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{f}: ::serde::field(__f{i}, \"{name}\", \"{f}\")?,\n"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn read_json(__p: &mut ::serde::Parser<'_>) \
                         -> Result<Self, ::serde::DeError> {{\n\
                         {slots}\
                         let mut __key = __p.begin_object(\"{name}\")?;\n\
                         while let Some(__k) = __key {{\n\
                             match &*__k {{\n\
                                 {arms}\
                                 _ => __p.skip_value()?,\n\
                             }}\n\
                             __key = __p.next_key()?;\n\
                         }}\n\
                         Ok({name} {{\n{takes}}})\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|(_, a)| *a == 0)
                .map(|(v, _)| format!("\"{v}\" => Ok({name}::{v}),\n"))
                .collect();
            let newtype_arms: String = variants
                .iter()
                .filter(|(_, a)| *a == 1)
                .map(|(v, _)| format!("\"{v}\" => __p.value()?.map({name}::{v}),\n"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn read_json(__p: &mut ::serde::Parser<'_>) \
                         -> Result<Self, ::serde::DeError> {{\n\
                         match __p.begin_variant(\"{name}\")? {{\n\
                             ::serde::Variant::Unit(__tag) => match &*__tag {{\n\
                                 {unit_arms}\
                                 _ => Err(::serde::DeError::unknown_variant(\"{name}\", &__tag)),\n\
                             }},\n\
                             ::serde::Variant::Newtype(__tag) => {{\n\
                                 let __inner: Result<Self, ::serde::DeError> = match &*__tag {{\n\
                                     {newtype_arms}\
                                     _ => {{\n\
                                         __p.skip_value()?;\n\
                                         Err(::serde::DeError::unknown_variant(\"{name}\", &__tag))\n\
                                     }}\n\
                                 }};\n\
                                 __p.end_variant(\"{name}\", __inner)\n\
                             }}\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    out.parse()
        .expect("derive(Deserialize): generated code must parse")
}
