//! A minimal XML parser: nested elements, self-closing tags, text ignored.
//! Enough to load documents into the pre/post encoding; not a conformance
//! parser (substitution documented in DESIGN.md).

use mammoth_types::{Error, Result};

/// One element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlNode {
    pub tag: String,
    pub children: Vec<XmlNode>,
}

impl XmlNode {
    pub fn new(tag: impl Into<String>) -> XmlNode {
        XmlNode {
            tag: tag.into(),
            children: Vec::new(),
        }
    }

    /// Total node count (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }
}

/// Parse a document with a single root element.
pub fn parse_xml(src: &str) -> Result<XmlNode> {
    let mut p = XmlParser {
        src: src.as_bytes(),
        pos: 0,
    };
    p.skip_noise();
    let root = p.element()?;
    p.skip_noise();
    if p.pos != p.src.len() {
        return Err(p.err("trailing content after the root element"));
    }
    Ok(root)
}

struct XmlParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl XmlParser<'_> {
    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse {
            pos: self.pos,
            message: msg.into(),
        }
    }

    /// Skip whitespace and text content between tags.
    fn skip_noise(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos] != b'<' {
            self.pos += 1;
        }
    }

    fn name(&mut self) -> Result<String> {
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric()
                || self.src[self.pos] == b'_'
                || self.src[self.pos] == b'-')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a tag name"));
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("invalid utf8"))?
            .to_string())
    }

    fn element(&mut self) -> Result<XmlNode> {
        if self.src.get(self.pos) != Some(&b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let tag = self.name()?;
        // skip attributes (ignored) until '>' or '/>'
        while self.pos < self.src.len() && self.src[self.pos] != b'>' && self.src[self.pos] != b'/'
        {
            self.pos += 1;
        }
        match self.src.get(self.pos) {
            Some(b'/') => {
                // self-closing
                self.pos += 1;
                if self.src.get(self.pos) != Some(&b'>') {
                    return Err(self.err("expected '/>'"));
                }
                self.pos += 1;
                return Ok(XmlNode::new(tag));
            }
            Some(b'>') => {
                self.pos += 1;
            }
            _ => return Err(self.err("unterminated start tag")),
        }
        let mut node = XmlNode::new(tag);
        loop {
            self.skip_noise();
            if self.pos + 1 >= self.src.len() {
                return Err(self.err(format!("unclosed element <{}>", node.tag)));
            }
            if self.src[self.pos] == b'<' && self.src[self.pos + 1] == b'/' {
                self.pos += 2;
                let closing = self.name()?;
                if closing != node.tag {
                    return Err(self.err(format!(
                        "mismatched close: <{}> closed by </{}>",
                        node.tag, closing
                    )));
                }
                if self.src.get(self.pos) != Some(&b'>') {
                    return Err(self.err("expected '>'"));
                }
                self.pos += 1;
                return Ok(node);
            }
            node.children.push(self.element()?);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = parse_xml("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(doc.tag, "a");
        assert_eq!(doc.children.len(), 2);
        assert_eq!(doc.children[0].children[0].tag, "c");
        assert_eq!(doc.size(), 4);
    }

    #[test]
    fn text_and_whitespace_ignored() {
        let doc = parse_xml("<a> hello <b>world</b> ! </a>").unwrap();
        assert_eq!(doc.children.len(), 1);
        assert_eq!(doc.children[0].tag, "b");
    }

    #[test]
    fn attributes_skipped() {
        let doc = parse_xml(r#"<a id="1"><b class="x"/></a>"#).unwrap();
        assert_eq!(doc.children[0].tag, "b");
    }

    #[test]
    fn errors() {
        assert!(parse_xml("<a><b></a>").is_err()); // mismatch
        assert!(parse_xml("<a>").is_err()); // unclosed
        assert!(parse_xml("<a/><b/>").is_err()); // two roots
        assert!(parse_xml("plain").is_err());
    }
}
