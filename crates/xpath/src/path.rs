//! Simple location-path evaluation: `/a/b//c` style paths.

use crate::encode::Doc;
use crate::staircase::{children, descendants_staircase};
use mammoth_types::{Error, Result};

/// An XPath axis (the subset the engine accelerates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Child,
    Descendant,
}

/// One location step: an axis plus a tag test (`None` = `*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    pub axis: Axis,
    pub tag: Option<String>,
}

/// Parse a path like `/a//b/*` into steps.
pub(crate) fn parse_path(path: &str) -> Result<Vec<Step>> {
    if !path.starts_with('/') {
        return Err(Error::Parse {
            pos: 0,
            message: "path must start with '/'".into(),
        });
    }
    let mut steps = Vec::new();
    let mut rest = path;
    while !rest.is_empty() {
        let axis = if let Some(r) = rest.strip_prefix("//") {
            rest = r;
            Axis::Descendant
        } else if let Some(r) = rest.strip_prefix('/') {
            rest = r;
            Axis::Child
        } else {
            return Err(Error::Parse {
                pos: path.len() - rest.len(),
                message: "expected '/' or '//'".into(),
            });
        };
        let end = rest.find('/').unwrap_or(rest.len());
        let name = &rest[..end];
        if name.is_empty() {
            return Err(Error::Parse {
                pos: path.len() - rest.len(),
                message: "empty step".into(),
            });
        }
        steps.push(Step {
            axis,
            tag: (name != "*").then(|| name.to_string()),
        });
        rest = &rest[end..];
    }
    Ok(steps)
}

/// Evaluate a path against a document, starting from the root's children
/// context (i.e. `/a` matches a root element tagged `a`).
pub fn eval_path(doc: &Doc, path: &str) -> Result<Vec<u32>> {
    let steps = parse_path(path)?;
    // virtual document node: context = {root} handled via a pseudo-step
    let mut context: Vec<u32> = vec![];
    for (i, step) in steps.iter().enumerate() {
        let moved: Vec<u32> = if i == 0 {
            // from the virtual document root
            match step.axis {
                Axis::Child => vec![0],
                Axis::Descendant => (0..doc.len() as u32).collect(),
            }
        } else {
            match step.axis {
                Axis::Child => children(doc, &context),
                Axis::Descendant => descendants_staircase(doc, &context),
            }
        };
        context = match &step.tag {
            None => moved,
            Some(t) => {
                let id = doc.tag_id(t);
                match id {
                    None => Vec::new(),
                    Some(id) => moved
                        .into_iter()
                        .filter(|&p| doc.tag[p as usize] == id)
                        .collect(),
                }
            }
        };
        if context.is_empty() {
            return Ok(context);
        }
    }
    Ok(context)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::parse_xml;

    fn doc() -> Doc {
        Doc::encode(
            &parse_xml("<lib><shelf><book/><book/></shelf><shelf><dvd/><book/></shelf></lib>")
                .unwrap(),
        )
        // pre: lib=0 shelf=1 book=2 book=3 shelf=4 dvd=5 book=6
    }

    #[test]
    fn parses_paths() {
        let steps = parse_path("/a//b/*").unwrap();
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].axis, Axis::Child);
        assert_eq!(steps[1].axis, Axis::Descendant);
        assert_eq!(steps[2].tag, None);
        assert!(parse_path("a/b").is_err());
        assert!(parse_path("/a//").is_err());
    }

    #[test]
    fn child_chains() {
        let d = doc();
        assert_eq!(eval_path(&d, "/lib").unwrap(), vec![0]);
        assert_eq!(eval_path(&d, "/lib/shelf").unwrap(), vec![1, 4]);
        assert_eq!(eval_path(&d, "/lib/shelf/book").unwrap(), vec![2, 3, 6]);
        assert_eq!(eval_path(&d, "/lib/shelf/dvd").unwrap(), vec![5]);
        assert_eq!(eval_path(&d, "/nosuch").unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn descendant_steps() {
        let d = doc();
        assert_eq!(eval_path(&d, "//book").unwrap(), vec![2, 3, 6]);
        assert_eq!(eval_path(&d, "/lib//book").unwrap(), vec![2, 3, 6]);
        assert_eq!(eval_path(&d, "//shelf//book").unwrap(), vec![2, 3, 6]);
    }

    #[test]
    fn wildcard() {
        let d = doc();
        assert_eq!(eval_path(&d, "/lib/*").unwrap(), vec![1, 4]);
        assert_eq!(eval_path(&d, "/lib/*/book").unwrap(), vec![2, 3, 6]);
    }
}
