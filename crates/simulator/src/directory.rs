//! The service directory.
//!
//! At HUG the directory is "basically an XML file indicating the root URL
//! of groups of functionally related services", with an identifier and
//! replication information per group (§3.3). This module renders the
//! generated topology's services into exactly that artifact and parses it
//! back, so technique L3 can be driven from the *directory document*
//! rather than from simulator internals — the same interface a real
//! deployment would have.

use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// One service-group entry of the directory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectoryEntry {
    /// Group identifier, e.g. `DPINOTIFICATION`.
    pub id: String,
    /// Root URL of the group.
    pub url: String,
    /// Whether the group is replicated.
    pub replicated: bool,
}

/// The service directory: the list of published groups.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServiceDirectory {
    /// Published entries, in directory order.
    pub entries: Vec<DirectoryEntry>,
}

impl ServiceDirectory {
    /// Extracts the published directory from a topology.
    pub fn from_topology(topology: &Topology) -> Self {
        Self {
            entries: topology
                .services
                .iter()
                .map(|s| DirectoryEntry {
                    id: s.id.clone(),
                    url: s.url.clone(),
                    replicated: s.replicated,
                })
                .collect(),
        }
    }

    /// All group identifiers, directory order.
    pub fn ids(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.id.as_str()).collect()
    }

    /// Finds an entry index by id.
    pub fn find(&self, id: &str) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the directory as the HUG-style XML document.
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<serviceDirectory>\n");
        for e in &self.entries {
            out.push_str(&format!(
                "  <group id=\"{}\" url=\"{}\" replicated=\"{}\"/>\n",
                xml_escape(&e.id),
                xml_escape(&e.url),
                e.replicated
            ));
        }
        out.push_str("</serviceDirectory>\n");
        out
    }

    /// Parses the HUG-style XML document produced by [`Self::to_xml`].
    ///
    /// This is a purpose-built parser for that fixed shape, not a
    /// general XML library: it accepts `<group .../>` elements with
    /// `id`, `url` and `replicated` attributes in any order.
    pub fn from_xml(xml: &str) -> Result<Self, DirectoryParseError> {
        let mut entries = Vec::new();
        for (lineno, line) in xml.lines().enumerate() {
            let line = line.trim();
            if !line.starts_with("<group") {
                continue;
            }
            let id = attr(line, "id").ok_or(DirectoryParseError::MissingAttr(lineno + 1, "id"))?;
            let url =
                attr(line, "url").ok_or(DirectoryParseError::MissingAttr(lineno + 1, "url"))?;
            let replicated = attr(line, "replicated")
                .map(|v| v == "true")
                .unwrap_or(false);
            entries.push(DirectoryEntry {
                id: xml_unescape(&id),
                url: xml_unescape(&url),
                replicated,
            });
        }
        Ok(Self { entries })
    }
}

/// Parse failures for the directory document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectoryParseError {
    /// A `<group>` element lacked a required attribute (line, name).
    MissingAttr(usize, &'static str),
}

impl std::fmt::Display for DirectoryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryParseError::MissingAttr(line, name) => {
                write!(f, "line {line}: <group> missing attribute {name:?}")
            }
        }
    }
}

impl std::error::Error for DirectoryParseError {}

fn attr(line: &str, name: &str) -> Option<String> {
    let marker = format!("{name}=\"");
    let start = line.find(&marker)? + marker.len();
    let (value, _) = line.get(start..)?.split_once('"')?;
    Some(value.to_owned())
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('"', "&quot;")
}

fn xml_unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NoiseConfig, TopologyConfig};
    use crate::topology::Topology;

    fn directory() -> ServiceDirectory {
        let t = Topology::generate(
            &TopologyConfig::hug_like(),
            &NoiseConfig::paper_taxonomy(),
            7,
        );
        ServiceDirectory::from_topology(&t)
    }

    #[test]
    fn from_topology_covers_all_services() {
        let d = directory();
        assert_eq!(d.len(), 47);
        assert!(!d.is_empty());
        assert!(d.ids().iter().all(|id| !id.is_empty()));
    }

    #[test]
    fn xml_round_trip() {
        let d = directory();
        let xml = d.to_xml();
        let back = ServiceDirectory::from_xml(&xml).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn xml_shape_is_hug_like() {
        let d = directory();
        let xml = d.to_xml();
        assert!(xml.starts_with("<serviceDirectory>"));
        assert!(xml.contains("<group id=\""));
        assert!(xml.contains("replicated=\""));
        assert!(xml.trim_end().ends_with("</serviceDirectory>"));
    }

    #[test]
    fn find_by_id() {
        let d = directory();
        let first = d.entries[0].id.clone();
        assert_eq!(d.find(&first), Some(0));
        assert_eq!(d.find("NO_SUCH_GROUP"), None);
    }

    #[test]
    fn parse_rejects_missing_attrs() {
        let bad = "<serviceDirectory>\n<group url=\"http://x\"/>\n</serviceDirectory>";
        assert!(matches!(
            ServiceDirectory::from_xml(bad),
            Err(DirectoryParseError::MissingAttr(2, "id"))
        ));
    }

    #[test]
    fn parse_tolerates_attribute_order_and_noise() {
        let xml = "<serviceDirectory>\n\
                   <!-- generated -->\n\
                   <group url=\"http://a\" replicated=\"true\" id=\"SVC1\"/>\n\
                   <group id=\"SVC2\" url=\"http://b\"/>\n\
                   </serviceDirectory>";
        let d = ServiceDirectory::from_xml(xml).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.entries[0].id, "SVC1");
        assert!(d.entries[0].replicated);
        assert!(!d.entries[1].replicated, "replicated defaults to false");
    }

    #[test]
    fn escaping_round_trip() {
        let d = ServiceDirectory {
            entries: vec![DirectoryEntry {
                id: "A&B<C\"D".to_owned(),
                url: "http://x?a=1&b=2".to_owned(),
                replicated: false,
            }],
        };
        let back = ServiceDirectory::from_xml(&d.to_xml()).unwrap();
        assert_eq!(d, back);
    }
}
