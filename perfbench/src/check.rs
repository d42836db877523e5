//! Cold checks of a release from the bytes written, with a CSV splitter
//! of the benchmark's own: a bug in the program's reader or writer cannot
//! hide behind itself.
//!
//! The same pass collects what the quality metrics need: suppressed cells
//! (information loss), the equivalence classes of released
//! quasi-identifier tuples, and the distinct suppression masks, which
//! give an attacker's expected success by pattern lookup instead of a
//! row-by-row join.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// FNV-1a over `bytes`: the digest releases are compared by.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Hash of a quasi-identifier tuple, cell by cell with a separator.
fn tuple_hash<'a>(cells: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in cells {
        for &b in cell.as_bytes().iter().chain(std::iter::once(&0x1f)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Splits one CSV record into fields, undoing RFC 4180 quoting.
pub fn split_record(line: &str) -> Vec<Cow<'_, str>> {
    let mut fields = Vec::new();
    split_into(line, &mut fields);
    fields
}

/// As [`split_record`], into a reused buffer.
fn split_into<'a>(line: &'a str, fields: &mut Vec<Cow<'a, str>>) {
    fields.clear();
    if !line.contains('"') {
        fields.extend(line.split(',').map(Cow::Borrowed));
        return;
    }
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            ('"', _) => quoted = !quoted,
            (',', false) => fields.push(Cow::Owned(std::mem::take(&mut cur))),
            _ => cur.push(c),
        }
    }
    fields.push(Cow::Owned(cur));
}

fn lines(bytes: &[u8]) -> Result<std::str::Lines<'_>, String> {
    std::str::from_utf8(bytes)
        .map(str::lines)
        .map_err(|e| format!("release is not UTF-8: {e}"))
}

/// What a cold check of one release found.
#[derive(Debug, Default)]
pub struct Cold {
    /// Data rows in the release.
    pub rows: usize,
    /// Quasi-identifier cells released as `*`.
    pub stars: usize,
    /// Quasi-identifier cells in the release.
    pub qi_cells: usize,
    /// Size of each class of identical released quasi-identifier tuples.
    classes: HashMap<u64, u32>,
    /// Distinct suppression masks (bit `p` set: quasi position `p` is `*`).
    masks: Vec<u32>,
    /// Smallest class.
    pub min_class: usize,
    /// Smallest count of distinct sensitive values in a class, when a
    /// sensitive column was checked.
    pub min_diversity: Option<usize>,
}

impl Cold {
    /// Suppressed fraction of quasi-identifier cells.
    pub fn loss(&self) -> f64 {
        self.stars as f64 / self.qi_cells.max(1) as f64
    }

    /// Distinct suppression masks in the release.
    pub fn patterns(&self) -> usize {
        self.masks.len()
    }

    /// Expected success of a linkage attacker who holds the original
    /// quasi-identifier tuples of the `input` rows at `rows` (every row
    /// when `None`; otherwise sorted indices): the mean of
    /// 1 / |consistent released rows|, where a released row is consistent
    /// when every cell equals the attacker's value or is `*`. Each release
    /// row carries one of [`Cold::patterns`] masks, so the consistent rows
    /// of one mask form exactly one class: the attacker's tuple with that
    /// mask's cells starred.
    pub fn expected_success(
        &self,
        input: &[u8],
        quasi: &[&str],
        rows: Option<&[usize]>,
    ) -> Result<f64, String> {
        let mut it = lines(input)?;
        let header = split_record(it.next().ok_or("input has no header")?);
        let qi: Vec<usize> = quasi
            .iter()
            .map(|n| {
                header
                    .iter()
                    .position(|h| h == n)
                    .ok_or(format!("input has no column `{n}`"))
            })
            .collect::<Result<_, _>>()?;
        let mut wanted = rows.map(|r| r.iter().copied().peekable());
        let (mut mass, mut attacked) = (0.0, 0usize);
        let mut row = Vec::new();
        for (i, line) in it.enumerate() {
            if let Some(w) = wanted.as_mut() {
                if w.peek() != Some(&i) {
                    continue;
                }
                w.next();
            }
            split_into(line, &mut row);
            let mut candidates = 0u64;
            for &mask in &self.masks {
                let key = tuple_hash(qi.iter().enumerate().map(|(p, &j)| {
                    if mask >> p & 1 == 1 {
                        "*"
                    } else {
                        row[j].as_ref()
                    }
                }));
                candidates += u64::from(self.classes.get(&key).copied().unwrap_or(0));
            }
            if candidates > 0 {
                mass += 1.0 / candidates as f64;
            }
            attacked += 1;
        }
        if attacked == 0 {
            return Err("the attacker holds no rows".into());
        }
        Ok(mass / attacked as f64)
    }
}

/// Checks `release` against the `input` it was made from (when given):
/// same header and row count, every cell equal to the input's or `*`, and
/// `*` only in `quasi` columns. Then checks that every class of identical
/// released quasi-identifier tuples has at least `k` rows and, when
/// `sensitive = Some((column, l))`, at least `l` distinct values there.
pub fn cold_check(
    input: Option<&[u8]>,
    release: &[u8],
    quasi: &[&str],
    k: usize,
    sensitive: Option<(&str, usize)>,
) -> Result<Cold, String> {
    let mut rel_lines = lines(release)?;
    let header: Vec<String> = split_record(rel_lines.next().ok_or("release has no header")?)
        .into_iter()
        .map(Cow::into_owned)
        .collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| format!("release header lacks column `{name}`"))
    };
    let qi: Vec<usize> = quasi.iter().map(|n| col(n)).collect::<Result<_, _>>()?;
    if qi.len() > 32 {
        return Err("more than 32 quasi-identifier columns".into());
    }
    let sens = match sensitive {
        Some((name, l)) => Some((col(name)?, l)),
        None => None,
    };
    let mut in_lines = match input {
        Some(bytes) => {
            let mut it = lines(bytes)?;
            let in_header: Vec<Cow<'_, str>> =
                split_record(it.next().ok_or("input has no header")?);
            if in_header != header {
                return Err("release header differs from the input header".into());
            }
            Some(it)
        }
        None => None,
    };
    let mut is_qi = vec![false; header.len()];
    for &j in &qi {
        is_qi[j] = true;
    }

    let mut cold = Cold::default();
    let mut masks: HashSet<u32> = HashSet::new();
    let mut diversity: HashMap<u64, HashSet<u64>> = HashMap::new();
    let (mut row, mut original) = (Vec::new(), Vec::new());
    for (i, line) in rel_lines.enumerate() {
        split_into(line, &mut row);
        if row.len() != header.len() {
            return Err(format!("release row {} has {} fields", i + 1, row.len()));
        }
        if let Some(it) = in_lines.as_mut() {
            split_into(
                it.next().ok_or("release has more rows than the input")?,
                &mut original,
            );
            for (j, (r, o)) in row.iter().zip(&original).enumerate() {
                if r != o && !(is_qi[j] && r == "*") {
                    return Err(format!(
                        "release row {} column {j}: `{r}` is not `{o}`",
                        i + 1
                    ));
                }
            }
        }
        let mut mask = 0u32;
        for (p, &j) in qi.iter().enumerate() {
            if row[j] == "*" {
                mask |= 1 << p;
                cold.stars += 1;
            }
        }
        masks.insert(mask);
        let key = tuple_hash(qi.iter().map(|&j| row[j].as_ref()));
        *cold.classes.entry(key).or_insert(0) += 1;
        if let Some((j, _)) = sens {
            diversity
                .entry(key)
                .or_default()
                .insert(fnv64(row[j].as_bytes()));
        }
        cold.rows += 1;
    }
    if let Some(mut it) = in_lines {
        if it.next().is_some() {
            return Err("release has fewer rows than the input".into());
        }
    }
    cold.qi_cells = cold.rows * qi.len();
    cold.min_class = cold.classes.values().copied().min().unwrap_or(0) as usize;
    if cold.rows == 0 || cold.min_class < k {
        return Err(format!(
            "release is only {}-anonymous over {} rows, needed {k}",
            cold.min_class, cold.rows
        ));
    }
    if let Some((_, l)) = sens {
        let min = diversity.values().map(HashSet::len).min().unwrap_or(0);
        cold.min_diversity = Some(min);
        if min < l {
            return Err(format!("release is only {min}-diverse, needed {l}"));
        }
    }
    let mut masks: Vec<u32> = masks.into_iter().collect();
    masks.sort_unstable();
    cold.masks = masks;
    Ok(cold)
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPUT: &str = "a,b,s\n1,x,p\n1,y,q\n2,y,p\n2,y,q\n";

    #[test]
    fn cold_check_counts_classes_and_stars() {
        let release = "a,b,s\n1,*,p\n1,*,q\n2,y,p\n2,y,q\n";
        let cold = cold_check(
            Some(INPUT.as_bytes()),
            release.as_bytes(),
            &["a", "b"],
            2,
            Some(("s", 2)),
        )
        .unwrap();
        assert_eq!(cold.rows, 4);
        assert_eq!(cold.stars, 2);
        assert_eq!(cold.patterns(), 2);
        assert_eq!(cold.min_class, 2);
        assert_eq!(cold.min_diversity, Some(2));
        // Row 0 (1,x) matches the two `1,*` rows; rows 2 and 3 (2,y)
        // match their own class of two.
        let attack = cold
            .expected_success(INPUT.as_bytes(), &["a", "b"], Some(&[0, 2]))
            .unwrap();
        assert!((attack - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cold_check_rejects_small_classes_and_altered_cells() {
        let small = "a,b,s\n1,x,p\n1,*,q\n2,y,p\n2,y,q\n";
        assert!(cold_check(None, small.as_bytes(), &["a", "b"], 2, None).is_err());
        let altered = "a,b,s\n1,*,p\n1,*,q\n2,y,p\n2,y,z\n";
        assert!(cold_check(
            Some(INPUT.as_bytes()),
            altered.as_bytes(),
            &["a", "b"],
            2,
            None
        )
        .is_err());
    }

    #[test]
    fn quoted_fields_split() {
        let f = split_record("\"a,b\",c,\"d\"\"e\"");
        assert_eq!(f, vec!["a,b", "c", "d\"e"]);
    }
}
