//! `memory.stat`-style text rendering.
//!
//! Production Senpai reads cgroup state from text control files; this
//! renders the simulator's [`CgroupStat`] in that shape so tooling (and
//! tests) can consume the same interface.

use tmo_sim::ByteSize;

use crate::stats::CgroupStat;

/// Renders a `memory.stat`-style file for one cgroup: byte counts for
/// the resident pools and cumulative event counters, one `key value`
/// pair per line, in a stable order.
///
/// # Example
///
/// ```
/// use tmo_mm::{MemoryManager, MmConfig, PageKind};
/// use tmo_mm::render::render_memory_stat;
/// use tmo_sim::SimTime;
///
/// let mut mm = MemoryManager::new(MmConfig::default());
/// let cg = mm.create_cgroup("web", None);
/// mm.alloc_pages(cg, PageKind::Anon, 4, SimTime::ZERO).expect("fits");
/// let text = render_memory_stat(&mm.cgroup_stat(cg), mm.page_size());
/// assert!(text.starts_with("anon 65536\n"));
/// assert!(text.contains("pswpin 0"));
/// ```
pub fn render_memory_stat(stat: &CgroupStat, page_size: ByteSize) -> String {
    let bytes = |pages: tmo_sim::PageCount| pages.to_bytes(page_size).as_u64();
    format!(
        "anon {}\nfile {}\nswapped {}\nfile_evicted {}\nworkingset_refault_file {}\npswpin {}\npswpout {}\n",
        bytes(stat.anon_resident),
        bytes(stat.file_resident),
        bytes(stat.anon_offloaded),
        bytes(stat.file_evicted),
        stat.refaults_total,
        stat.swapins_total,
        stat.swapouts_total,
    )
}

/// Parses one `key value` line of a `memory.stat`-style file: a
/// non-empty key, one space, and exactly one unsigned value. Returns
/// `None` on anything else.
pub fn parse_stat_line(line: &str) -> Option<(&str, u64)> {
    let (key, value) = line.split_once(' ')?;
    if key.is_empty() || key.contains(char::is_whitespace) {
        return None;
    }
    // `u64::from_str` takes no whitespace, so a second value fails here.
    Some((key, value.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{MemoryManager, MmConfig};
    use crate::page::PageKind;
    use tmo_sim::{ByteSize, SimTime};

    fn mm_with_pages() -> (MemoryManager, crate::cgroup::CgroupId) {
        let mut mm = MemoryManager::new(MmConfig {
            page_size: ByteSize::from_kib(4),
            total_dram: ByteSize::from_mib(1),
            ..MmConfig::default()
        });
        let cg = mm.create_cgroup("t", None);
        mm.alloc_pages(cg, PageKind::Anon, 3, SimTime::ZERO)
            .expect("fits");
        mm.alloc_pages(cg, PageKind::File, 5, SimTime::ZERO)
            .expect("fits");
        (mm, cg)
    }

    #[test]
    fn renders_byte_counts() {
        let (mm, cg) = mm_with_pages();
        let text = render_memory_stat(&mm.cgroup_stat(cg), mm.page_size());
        assert!(text.contains("anon 12288"));
        assert!(text.contains("file 20480"));
        assert!(text.contains("swapped 0"));
    }

    #[test]
    fn counters_appear_after_reclaim() {
        let (mut mm, cg) = mm_with_pages();
        mm.reclaim(cg, ByteSize::from_kib(8));
        let text = render_memory_stat(&mm.cgroup_stat(cg), mm.page_size());
        assert!(text.contains("file_evicted 8192"), "{text}");
    }

    #[test]
    fn lines_round_trip_through_the_parser() {
        let (mm, cg) = mm_with_pages();
        let text = render_memory_stat(&mm.cgroup_stat(cg), mm.page_size());
        for line in text.lines() {
            let (key, value) = parse_stat_line(line).expect("parses");
            assert!(!key.is_empty());
            if key == "anon" {
                assert_eq!(value, 12288);
            }
        }
        assert!(parse_stat_line("garbage").is_none());
        assert!(parse_stat_line("key notanumber").is_none());
    }

    #[test]
    fn parser_rejects_an_empty_key() {
        assert!(parse_stat_line(" 5").is_none());
    }

    #[test]
    fn parser_rejects_a_key_with_leading_whitespace() {
        assert!(parse_stat_line("\tanon 5").is_none());
    }

    #[test]
    fn parser_rejects_a_missing_value() {
        assert!(parse_stat_line("anon ").is_none());
    }

    #[test]
    fn parser_rejects_a_second_value() {
        assert!(parse_stat_line("anon 5 6").is_none());
    }

    #[test]
    fn parser_rejects_a_negative_value() {
        assert!(parse_stat_line("anon -5").is_none());
    }
}
