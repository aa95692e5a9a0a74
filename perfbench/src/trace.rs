//! The traced run's stage tree: each node is a timed call into one
//! layer, and a node with children carries a named residual so that
//! its children always add up to it.

/// One timed stage.
#[derive(Debug, Clone)]
pub struct Stage {
    pub name: String,
    pub ms: f64,
    pub children: Vec<Stage>,
}

impl Stage {
    pub fn leaf(name: &str, ms: f64) -> Stage {
        Stage {
            name: name.to_string(),
            ms,
            children: Vec::new(),
        }
    }

    /// A parent timed as `ms` whose `children` were timed separately;
    /// the part they do not cover becomes the child `residual`.
    pub fn node(name: &str, ms: f64, mut children: Vec<Stage>, residual: &str) -> Stage {
        let covered: f64 = children.iter().map(|c| c.ms).sum();
        children.push(Stage::leaf(residual, ms - covered));
        Stage {
            name: name.to_string(),
            ms,
            children,
        }
    }

    /// The residual child of this node (its last child), if any.
    pub fn residual(&self) -> Option<&Stage> {
        self.children.last()
    }

    /// Check that every node's children add up to it, and that no
    /// residual is negative by more than `slack` of its parent: a
    /// negative residual means the children were timed over work the
    /// parent did not do, so the decomposition is wrong.
    pub fn check(&self, slack: f64) -> Result<(), String> {
        if self.children.is_empty() {
            return Ok(());
        }
        let sum: f64 = self.children.iter().map(|c| c.ms).sum();
        if (sum - self.ms).abs() > 1e-6 * self.ms.abs().max(1.0) {
            return Err(format!(
                "{}: children sum to {sum:.3} ms, parent is {:.3} ms",
                self.name, self.ms
            ));
        }
        if let Some(r) = self.residual() {
            if r.ms < -slack * self.ms {
                return Err(format!(
                    "{}: residual {} is {:.3} ms of {:.3} ms",
                    self.name, r.name, r.ms, self.ms
                ));
            }
        }
        self.children.iter().try_for_each(|c| c.check(slack))
    }

    /// Indented `name  ms  share-of-parent` lines.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.render_into(0, self.ms, &mut out);
        out
    }

    fn render_into(&self, depth: usize, parent_ms: f64, out: &mut Vec<String>) {
        let share = if parent_ms > 0.0 {
            100.0 * self.ms / parent_ms
        } else {
            0.0
        };
        out.push(format!(
            "{:indent$}{:<width$} {:>12.3} ms {:>6.1}%",
            "",
            self.name,
            self.ms,
            share,
            indent = depth * 2,
            width = 40usize.saturating_sub(depth * 2)
        ));
        for c in &self.children {
            c.render_into(depth + 1, self.ms, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_closes_the_node() {
        let tree = Stage::node(
            "root",
            10.0,
            vec![Stage::leaf("a", 3.0), Stage::leaf("b", 5.0)],
            "root.residual",
        );
        assert!((tree.residual().unwrap().ms - 2.0).abs() < 1e-12);
        assert!(tree.check(0.0).is_ok());
    }

    #[test]
    fn over_covered_parent_is_refused() {
        let tree = Stage::node("root", 10.0, vec![Stage::leaf("a", 12.0)], "r");
        assert!(tree.check(0.05).is_err());
        assert!(tree.check(0.5).is_ok());
    }
}
