//! The decision-tree data structure, prediction, and rendering.

use serde::{Deserialize, Serialize};

/// A training sample: a feature vector and a class label (index into the
/// tree's class-name table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    pub features: Vec<f64>,
    pub label: usize,
}

impl Sample {
    pub fn new(features: Vec<f64>, label: usize) -> Self {
        Sample { features, label }
    }
}

/// A tree node. Every node carries the statistics scikit-learn prints and
/// the paper's figures show: per-class sample counts (`value`), the Gini
/// impurity, and the majority class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    Leaf {
        /// Per-class sample counts at this node.
        value: Vec<usize>,
        gini: f64,
        class: usize,
    },
    Split {
        /// Feature index the node tests.
        feature: usize,
        /// Samples with `features[feature] <= threshold` go left ("True"
        /// in scikit-learn's rendering).
        threshold: f64,
        value: Vec<usize>,
        gini: f64,
        class: usize,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    pub fn value(&self) -> &[usize] {
        match self {
            Node::Leaf { value, .. } | Node::Split { value, .. } => value,
        }
    }

    pub fn gini(&self) -> f64 {
        match self {
            Node::Leaf { gini, .. } | Node::Split { gini, .. } => *gini,
        }
    }

    pub fn class(&self) -> usize {
        match self {
            Node::Leaf { class, .. } | Node::Split { class, .. } => *class,
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    fn count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.count() + right.count(),
        }
    }
}

/// A fitted decision tree plus its feature/class naming.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    pub root: Node,
    pub feature_names: Vec<String>,
    pub class_names: Vec<String>,
}

impl DecisionTree {
    /// Predict the class index for a feature vector.
    pub fn predict(&self, features: &[f64]) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class, .. } => return *class,
                Node::Split { feature, threshold, left, right, .. } => {
                    assert!(
                        *feature < features.len(),
                        "feature vector too short for this tree"
                    );
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Fraction of samples the tree classifies correctly.
    pub fn accuracy(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 1.0;
        }
        let hits = samples.iter().filter(|s| self.predict(&s.features) == s.label).count();
        hits as f64 / samples.len() as f64
    }

    /// Maximum root-to-leaf path length in nodes. The paper: "maximum path
    /// length in the RAQO decision trees is 6 for Hive and 7 for Spark."
    pub fn max_path_len(&self) -> usize {
        self.root.depth()
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.root.count()
    }

    /// Render in the style of scikit-learn's `export_text` / the paper's
    /// Figs. 10–11: each node line shows the split (or "leaf"), gini,
    /// samples, value, and class.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(&self.root, 0, &mut out);
        out
    }

    fn render_node(&self, node: &Node, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let samples: usize = node.value().iter().sum();
        match node {
            Node::Leaf { value, gini, class } => {
                out.push_str(&format!(
                    "{indent}leaf: gini = {gini:.4}, samples = {samples}, value = {value:?}, class = {}\n",
                    self.class_names[*class]
                ));
            }
            Node::Split { feature, threshold, value, gini, class, left, right } => {
                out.push_str(&format!(
                    "{indent}{} <= {threshold} : gini = {gini:.4}, samples = {samples}, value = {value:?}, class = {}\n",
                    self.feature_names[*feature], self.class_names[*class]
                ));
                self.render_node(left, depth + 1, out);
                self.render_node(right, depth + 1, out);
            }
        }
    }
}

/// Gini impurity of a class-count vector.
pub fn gini(value: &[usize]) -> f64 {
    let n: usize = value.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - value
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p
        })
        .sum::<f64>()
}

/// Majority class (lowest index wins ties, like scikit-learn).
pub fn majority(value: &[usize]) -> usize {
    value
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(value: Vec<usize>) -> Node {
        let g = gini(&value);
        let class = majority(&value);
        Node::Leaf { value, gini: g, class }
    }

    fn two_class_tree() -> DecisionTree {
        // x0 <= 5 -> class 0 else class 1
        DecisionTree {
            root: Node::Split {
                feature: 0,
                threshold: 5.0,
                value: vec![3, 3],
                gini: 0.5,
                class: 0,
                left: Box::new(leaf(vec![3, 0])),
                right: Box::new(leaf(vec![0, 3])),
            },
            feature_names: vec!["x0".into()],
            class_names: vec!["A".into(), "B".into()],
        }
    }

    #[test]
    fn gini_of_pure_and_balanced() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert_eq!(gini(&[0, 10]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
        // Three balanced classes: 1 - 3*(1/3)^2 = 2/3.
        assert!((gini(&[4, 4, 4]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn majority_breaks_ties_low() {
        assert_eq!(majority(&[5, 5]), 0);
        assert_eq!(majority(&[1, 7]), 1);
        assert_eq!(majority(&[0, 0, 3]), 2);
    }

    #[test]
    fn predict_follows_thresholds() {
        let t = two_class_tree();
        assert_eq!(t.predict(&[4.0]), 0);
        assert_eq!(t.predict(&[5.0]), 0); // <= goes left
        assert_eq!(t.predict(&[5.1]), 1);
        assert_eq!(t.class_names[t.predict(&[9.0])], "B");
    }

    #[test]
    fn accuracy_counts_hits() {
        let t = two_class_tree();
        let samples = vec![
            Sample::new(vec![1.0], 0),
            Sample::new(vec![9.0], 1),
            Sample::new(vec![2.0], 1), // wrong
        ];
        assert!((t.accuracy(&samples) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.accuracy(&[]), 1.0);
    }

    #[test]
    fn path_len_and_node_count() {
        let t = two_class_tree();
        assert_eq!(t.max_path_len(), 2);
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn render_matches_figure_style() {
        let t = two_class_tree();
        let text = t.render();
        assert!(text.contains("x0 <= 5"), "{text}");
        assert!(text.contains("gini = 0.5000"), "{text}");
        assert!(text.contains("value = [3, 0]"), "{text}");
        assert!(text.contains("class = A"), "{text}");
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn predict_rejects_short_vectors() {
        two_class_tree().predict(&[]);
    }
}
